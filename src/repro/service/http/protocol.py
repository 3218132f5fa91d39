"""JSON wire vocabulary of the HTTP serving layer.

One place defines what travels over the socket, shared by the server,
the shard workers (including process-mode workers, which ship payload
dictionaries across the pool boundary), the async client and the load
generator:

* **requests** — :func:`encode_aggregate_request` /
  :func:`decode_aggregate_request` turn a
  :class:`~repro.service.frontend.ServiceRequest` into a JSON body and
  back.  Datasets travel in the paper's plain-text ranking format
  (:mod:`repro.datasets.io`), embedded as one JSON string — the same
  bytes a dataset file holds, so any client that can write the text
  format can drive the server;
* **responses** — :func:`response_payload` flattens a
  :class:`~repro.service.frontend.ServiceResponse` (consensus buckets,
  score, source, the queue/execution latency split and the PR 7
  degradation vocabulary: ``ok`` / ``overloaded`` / ``deadline`` /
  ``draining`` / ``failed``); :func:`status_code_for` maps those
  statuses onto HTTP status codes;
* **identity** — :func:`result_fingerprint` digests the answer content
  (consensus, score, algorithm) so the load generator can assert that
  two replays against the same server state returned byte-identical
  results without storing the full payloads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields as dataclass_fields
from typing import Any

from ...core.ranking import Ranking
from ...datasets.dataset import Dataset
from ...datasets.io import dumps as dataset_dumps, loads as dataset_loads
from ...evaluation.guidance import Priority
from ..frontend import ServiceRequest, ServiceResponse

__all__ = [
    "AggregateRequestError",
    "encode_aggregate_request",
    "decode_aggregate_request",
    "response_payload",
    "decode_response_payload",
    "result_fingerprint",
    "status_code_for",
]

#: Degradation status → HTTP status code.  ``overloaded`` and ``draining``
#: both map to 503 (retry elsewhere / later), ``deadline`` to 504 (the
#: caller's time budget elapsed), ``too_large`` to 413 (the request body
#: exceeded the server's cap — shrink it, retrying is pointless),
#: ``failed`` to 500.
_STATUS_CODES = {
    "ok": 200,
    "overloaded": 503,
    "draining": 503,
    "deadline": 504,
    "too_large": 413,
    "failed": 500,
}


class AggregateRequestError(ValueError):
    """A request body that cannot be turned into a valid ServiceRequest.

    Raised by :func:`decode_aggregate_request`; the server answers it
    with a structured ``400 Bad Request`` instead of dispatching.
    """


def encode_aggregate_request(
    dataset: Dataset | str,
    *,
    name: str | None = None,
    priority: str | None = None,
    budget_seconds: float | None = None,
    deadline_seconds: float | None = None,
    algorithm: str | None = None,
    request_id: str | None = None,
) -> dict[str, Any]:
    """Build the JSON body of one ``POST /aggregate`` request.

    Parameters
    ----------
    dataset:
        The dataset to aggregate — a :class:`~repro.datasets.Dataset`
        (serialized to the text format) or an already-serialized text
        block.
    name:
        Dataset name echoed into telemetry labels (defaults to the
        dataset's own name).
    priority:
        Guidance priority for the portfolio race.
    budget_seconds:
        Per-request compute budget.
    deadline_seconds:
        Per-request total-latency deadline (queue wait included).
    algorithm:
        Pin one registry algorithm instead of racing a portfolio.
    request_id:
        Caller-side correlation id, echoed on the response.
    """
    if isinstance(dataset, Dataset):
        text = dataset_dumps(dataset, include_header=False)
        name = name if name is not None else dataset.name
    else:
        text = dataset
    payload: dict[str, Any] = {"dataset": text}
    if name is not None:
        payload["name"] = name
    if priority is not None:
        payload["priority"] = priority
    if budget_seconds is not None:
        payload["budget_seconds"] = budget_seconds
    if deadline_seconds is not None:
        payload["deadline_seconds"] = deadline_seconds
    if algorithm is not None:
        payload["algorithm"] = algorithm
    if request_id is not None:
        payload["request_id"] = request_id
    return payload


def decode_aggregate_request(payload: dict[str, Any]) -> ServiceRequest:
    """Parse one ``POST /aggregate`` body into a ServiceRequest.

    Parameters
    ----------
    payload:
        The decoded JSON body (see :func:`encode_aggregate_request`).

    Raises
    ------
    AggregateRequestError
        On a missing/empty dataset, an unparsable ranking line, an
        unknown priority or a non-positive budget/deadline.
    """
    if not isinstance(payload, dict):
        raise AggregateRequestError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    text = payload.get("dataset")
    if not isinstance(text, str) or not text.strip():
        raise AggregateRequestError(
            "request body needs a non-empty 'dataset' string "
            "(plain-text ranking format, one ranking per line)"
        )
    name = payload.get("name") or "http-dataset"
    try:
        dataset = dataset_loads(text, name=str(name))
    except Exception as error:  # InvalidRankingError and friends → 400
        raise AggregateRequestError(f"cannot parse dataset: {error}") from error
    if dataset.num_rankings == 0:
        raise AggregateRequestError("dataset contains no rankings")
    priority = payload.get("priority", Priority.BALANCED.value)
    try:
        priority = Priority(priority).value
    except ValueError as error:
        raise AggregateRequestError(f"unknown priority {priority!r}") from error
    budget = _optional_positive(payload, "budget_seconds")
    deadline = _optional_positive(payload, "deadline_seconds")
    algorithm = payload.get("algorithm")
    if algorithm is not None and not isinstance(algorithm, str):
        raise AggregateRequestError("'algorithm' must be a string when given")
    request_id = payload.get("request_id")
    if request_id is not None:
        request_id = str(request_id)
    return ServiceRequest(
        dataset=dataset,
        priority=priority,
        budget_seconds=budget,
        algorithm=algorithm,
        request_id=request_id,
        deadline_seconds=deadline,
    )


def _optional_positive(payload: dict[str, Any], field: str) -> float | None:
    """Read an optional strictly-positive float field or raise a 400 error.

    ``json`` parses ``NaN`` and ``±Infinity`` and ``float(True) == 1.0``,
    so non-finite values and booleans are refused explicitly: a NaN
    deadline never expires, and a NaN budget never equals itself, which
    would keep identical requests from coalescing.
    """
    value = payload.get(field)
    if value is None:
        return None
    try:
        number = float(value)
    except (TypeError, ValueError) as error:
        raise AggregateRequestError(f"{field!r} must be a number") from error
    if isinstance(value, bool) or not math.isfinite(number):
        raise AggregateRequestError(f"{field!r} must be a finite number, got {value}")
    if number <= 0:
        raise AggregateRequestError(f"{field!r} must be > 0, got {number}")
    return number


def response_payload(
    response: ServiceResponse, *, shard: str | None = None
) -> dict[str, Any]:
    """Flatten a ServiceResponse into its JSON wire form.

    Parameters
    ----------
    response:
        The response to serialize.
    shard:
        Name of the shard worker that answered (added for socket-path
        observability; absent on purely in-process payloads).
    """
    payload: dict[str, Any] = {
        "request_id": response.request_id,
        "status": response.status,
        "source": response.source,
        "algorithm": response.algorithm,
        "score": response.score,
        "consensus": (
            None
            if response.consensus is None
            else [list(bucket) for bucket in response.consensus.buckets]
        ),
        "latency_seconds": response.latency_seconds,
        "queue_seconds": response.queue_seconds,
        "execution_seconds": response.execution_seconds,
        "error": response.error,
    }
    if shard is not None:
        payload["shard"] = shard
    return payload


def decode_response_payload(payload: dict[str, Any]) -> ServiceResponse:
    """Rebuild the ServiceResponse behind one wire payload.

    The inverse of :func:`response_payload` (the ``shard`` entry is
    dropped).  The shard pool uses it to answer coalesced followers from
    their leader's payload.

    Parameters
    ----------
    payload:
        A response wire payload.
    """
    fields = {
        item.name: payload[item.name] for item in dataclass_fields(ServiceResponse)
    }
    if fields["consensus"] is not None:
        fields["consensus"] = Ranking(fields["consensus"])
    return ServiceResponse(**fields)


def result_fingerprint(payload: dict[str, Any]) -> str:
    """Content digest of one answer (consensus + score + algorithm).

    Stable across replays: two responses carrying the same consensus,
    score and algorithm fingerprint identically whatever their latency,
    source tier or shard — the identity the load generator's determinism
    contract is stated against.

    Parameters
    ----------
    payload:
        A response wire payload (:func:`response_payload`).
    """
    document = {
        "consensus": payload.get("consensus"),
        "score": payload.get("score"),
        "algorithm": payload.get("algorithm"),
        "status": payload.get("status"),
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def status_code_for(status: str) -> int:
    """HTTP status code for a degradation status (500 for unknown ones).

    Parameters
    ----------
    status:
        A response ``status`` value (``ok`` / ``overloaded`` /
        ``deadline`` / ``draining`` / ``too_large`` / ``failed``).
    """
    return _STATUS_CODES.get(status, 500)
