#!/usr/bin/env python
"""Dependency-free documentation builder and cross-reference checker.

The build container has no mkdocs/Sphinx, so the docs pipeline is
self-contained: this script renders the Markdown sources under ``docs/``
into a static HTML site (sidebar navigation, one page per source file, a
generated SVG module diagram) and validates the cross-reference graph:

* every relative link must point at an existing page (or generated asset),
  and a ``#fragment`` must match a heading anchor of the target page;
* every ``repro.*`` dotted reference inside inline code must resolve to an
  importable module / attribute of the installed package — stale API
  mentions fail the build;
* the navigation (:data:`NAV`) and the set of Markdown sources must match
  exactly, so no page can silently drop out of the site.

Usage::

    PYTHONPATH=src python docs/build_docs.py --check           # validate only
    PYTHONPATH=src python docs/build_docs.py --output site     # check + build

The checker exits non-zero on the first report of problems, which is what
the CI docs job relies on.
"""

from __future__ import annotations

import argparse
import html
import importlib
import re
import sys
from pathlib import Path

DOCS_DIR = Path(__file__).resolve().parent

#: The site navigation: (source file, sidebar title), in order.
NAV: list[tuple[str, str]] = [
    ("index.md", "Overview"),
    ("architecture.md", "Architecture"),
    ("guides/core-arrays.md", "Core & array kernels"),
    ("guides/prepared-datasets.md", "Prepared datasets"),
    ("guides/live-datasets.md", "Live datasets"),
    ("guides/engine.md", "Execution engine"),
    ("guides/resilience.md", "Resilience & fault injection"),
    ("guides/workloads.md", "Workload scenarios"),
    ("guides/service.md", "Serving layer"),
    ("guides/http-serving.md", "HTTP serving"),
    ("guides/recovery.md", "Recovery & failover"),
    ("guides/telemetry.md", "Telemetry"),
    ("guides/reproduce-paper.md", "Reproduce the paper"),
    ("reference/cli.md", "CLI reference"),
]

#: Assets produced by the build itself (valid link targets without a source).
GENERATED_ASSETS = {"assets/architecture.svg"}

_DOTTED = re.compile(r"^repro(\.[A-Za-z_][A-Za-z0-9_]*)+$")
_CODE_SPAN = re.compile(r"`([^`]+)`")
_LINK = re.compile(r"(?<!\!)\[([^\]]+)\]\(([^)\s]+)\)")
_IMAGE = re.compile(r"\!\[([^\]]*)\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^(#{1,5})\s+(.*?)\s*$")


def slugify(title: str) -> str:
    """Anchor id of a heading (GitHub-style: lowercase, dashes)."""
    text = re.sub(r"`([^`]*)`", r"\1", title)
    text = re.sub(r"[^\w\s-]", "", text.lower())
    return re.sub(r"[\s]+", "-", text.strip())


# --------------------------------------------------------------------------- #
# Markdown subset renderer
# --------------------------------------------------------------------------- #
def _render_inline(text: str) -> str:
    """Inline markup: code spans, links, images, bold, italics."""
    out = []
    cursor = 0
    # Protect code spans from the other inline rules.
    for match in _CODE_SPAN.finditer(text):
        out.append(_render_inline_plain(text[cursor : match.start()]))
        out.append(f"<code>{html.escape(match.group(1))}</code>")
        cursor = match.end()
    out.append(_render_inline_plain(text[cursor:]))
    return "".join(out)


def _render_inline_plain(text: str) -> str:
    text = html.escape(text, quote=False)
    text = _IMAGE.sub(lambda m: f'<img src="{m.group(2)}" alt="{m.group(1)}">', text)
    text = _LINK.sub(
        lambda m: f'<a href="{_href(m.group(2))}">{m.group(1)}</a>', text
    )
    text = re.sub(r"\*\*([^*]+)\*\*", r"<strong>\1</strong>", text)
    text = re.sub(r"(?<!\*)\*([^*]+)\*(?!\*)", r"<em>\1</em>", text)
    return text


def _href(target: str) -> str:
    """Rewrite relative ``.md`` links to the rendered ``.html`` pages."""
    if target.startswith(("http://", "https://", "mailto:")):
        return target
    path, _, fragment = target.partition("#")
    if path.endswith(".md"):
        path = path[: -len(".md")] + ".html"
    return path + (f"#{fragment}" if fragment else "")


def render_markdown(text: str) -> str:
    """Render the Markdown subset used by these docs into an HTML body."""
    lines = text.splitlines()
    out: list[str] = []
    index = 0
    while index < len(lines):
        line = lines[index]
        stripped = line.strip()

        if not stripped:
            index += 1
            continue

        if stripped.startswith("```"):
            language = stripped[3:].strip()
            block: list[str] = []
            index += 1
            while index < len(lines) and not lines[index].strip().startswith("```"):
                block.append(lines[index])
                index += 1
            index += 1  # closing fence
            classes = f' class="language-{language}"' if language else ""
            out.append(
                f"<pre><code{classes}>" + html.escape("\n".join(block)) + "</code></pre>"
            )
            continue

        heading = _HEADING.match(stripped)
        if heading:
            level = len(heading.group(1))
            title = heading.group(2)
            anchor = slugify(title)
            out.append(
                f'<h{level} id="{anchor}">{_render_inline(title)}'
                f'<a class="anchor" href="#{anchor}">¶</a></h{level}>'
            )
            index += 1
            continue

        if stripped.startswith("|"):
            rows: list[str] = []
            while index < len(lines) and lines[index].strip().startswith("|"):
                rows.append(lines[index].strip())
                index += 1
            out.append(_render_table(rows))
            continue

        if stripped.startswith(("- ", "* ")):
            items: list[str] = []
            while index < len(lines) and lines[index].strip().startswith(("- ", "* ")):
                item = [lines[index].strip()[2:]]
                index += 1
                # continuation lines (indented)
                while (
                    index < len(lines)
                    and lines[index].startswith("  ")
                    and lines[index].strip()
                    and not lines[index].strip().startswith(("- ", "* "))
                ):
                    item.append(lines[index].strip())
                    index += 1
                items.append(_render_inline(" ".join(item)))
            out.append("<ul>" + "".join(f"<li>{item}</li>" for item in items) + "</ul>")
            continue

        if re.match(r"^\d+\.\s", stripped):
            items = []
            while index < len(lines) and re.match(r"^\d+\.\s", lines[index].strip()):
                item = [re.sub(r"^\d+\.\s", "", lines[index].strip())]
                index += 1
                while (
                    index < len(lines)
                    and lines[index].startswith("  ")
                    and lines[index].strip()
                    and not re.match(r"^\d+\.\s", lines[index].strip())
                ):
                    item.append(lines[index].strip())
                    index += 1
                items.append(_render_inline(" ".join(item)))
            out.append("<ol>" + "".join(f"<li>{item}</li>" for item in items) + "</ol>")
            continue

        if stripped.startswith(">"):
            quote: list[str] = []
            while index < len(lines) and lines[index].strip().startswith(">"):
                quote.append(lines[index].strip().lstrip("> "))
                index += 1
            out.append("<blockquote><p>" + _render_inline(" ".join(quote)) + "</p></blockquote>")
            continue

        paragraph = [stripped]
        index += 1
        while index < len(lines):
            nxt = lines[index].strip()
            if (
                not nxt
                or nxt.startswith(("```", "#", "|", "- ", "* ", ">"))
                or re.match(r"^\d+\.\s", nxt)
            ):
                break
            paragraph.append(nxt)
            index += 1
        out.append("<p>" + _render_inline(" ".join(paragraph)) + "</p>")

    return "\n".join(out)


def _render_table(rows: list[str]) -> str:
    def cells(row: str) -> list[str]:
        return [cell.strip() for cell in row.strip("|").split("|")]

    header = cells(rows[0])
    body = [cells(row) for row in rows[2:]] if len(rows) > 2 else []
    parts = ["<table>", "<thead><tr>"]
    parts += [f"<th>{_render_inline(cell)}</th>" for cell in header]
    parts.append("</tr></thead><tbody>")
    for row in body:
        parts.append("<tr>" + "".join(f"<td>{_render_inline(cell)}</td>" for cell in row) + "</tr>")
    parts.append("</tbody></table>")
    return "".join(parts)


# --------------------------------------------------------------------------- #
# Cross-reference checking
# --------------------------------------------------------------------------- #
def page_anchors(text: str) -> set[str]:
    """All heading anchors of a Markdown source."""
    anchors = set()
    in_fence = False
    for line in text.splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line.strip())
        if match:
            anchors.add(slugify(match.group(2)))
    return anchors


def _iter_links(text: str):
    """Yield every link/image target outside fenced code blocks."""
    in_fence = False
    for line in text.splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK.finditer(line):
            yield match.group(2)
        for match in _IMAGE.finditer(line):
            yield match.group(2)


def _iter_code_references(text: str):
    """Yield every ``repro.*`` dotted reference in inline code spans."""
    in_fence = False
    for line in text.splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _CODE_SPAN.finditer(line):
            token = match.group(1).strip().rstrip("()")
            if _DOTTED.match(token):
                yield token


def _resolvable(token: str) -> bool:
    """Whether a dotted ``repro.*`` reference imports / resolves."""
    parts = token.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attribute in parts[split:]:
                obj = getattr(obj, attribute)
        except AttributeError:
            return False
        return True
    return False


def check(docs_dir: Path = DOCS_DIR) -> list[str]:
    """Validate the docs tree; returns a list of problem descriptions."""
    problems: list[str] = []
    sources = {
        str(path.relative_to(docs_dir)).replace("\\", "/")
        for path in docs_dir.rglob("*.md")
    }
    nav_paths = [path for path, _ in NAV]

    for path in nav_paths:
        if path not in sources:
            problems.append(f"nav entry {path!r} has no source file")
    for path in sorted(sources - set(nav_paths)):
        problems.append(f"page {path!r} is missing from the navigation")

    anchors = {
        path: page_anchors((docs_dir / path).read_text(encoding="utf-8"))
        for path in sorted(sources)
    }

    for path in sorted(sources):
        text = (docs_dir / path).read_text(encoding="utf-8")
        base = Path(path).parent
        for target in _iter_links(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            raw_path, _, fragment = target.partition("#")
            if not raw_path:  # same-page anchor
                if fragment and fragment not in anchors[path]:
                    problems.append(f"{path}: broken anchor #{fragment}")
                continue
            resolved = str((base / raw_path)).replace("\\", "/")
            resolved = str(Path(resolved)).replace("\\", "/")
            while resolved.startswith("./"):
                resolved = resolved[2:]
            if resolved in GENERATED_ASSETS:
                continue
            if resolved not in sources:
                problems.append(f"{path}: broken link {target!r}")
                continue
            if fragment and fragment not in anchors[resolved]:
                problems.append(
                    f"{path}: broken anchor {target!r} (no heading "
                    f"#{fragment} in {resolved})"
                )
        for token in _iter_code_references(text):
            if not _resolvable(token):
                problems.append(f"{path}: unresolvable API reference `{token}`")
    return problems


# --------------------------------------------------------------------------- #
# Site assembly
# --------------------------------------------------------------------------- #
_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{title} — repro-rankagg</title>
<style>
:root {{ --accent: #1f6feb; --ink: #1c2128; --muted: #57606a; --line: #d0d7de; }}
* {{ box-sizing: border-box; }}
body {{ margin: 0; font: 16px/1.6 system-ui, sans-serif; color: var(--ink); }}
.layout {{ display: flex; min-height: 100vh; }}
nav {{ width: 240px; flex-shrink: 0; border-right: 1px solid var(--line);
       padding: 24px 16px; background: #f6f8fa; }}
nav h1 {{ font-size: 16px; margin: 0 0 12px; }}
nav a {{ display: block; padding: 6px 10px; border-radius: 6px;
         color: var(--ink); text-decoration: none; }}
nav a.current {{ background: var(--accent); color: #fff; }}
nav a:hover:not(.current) {{ background: #eaeef2; }}
main {{ flex: 1; max-width: 860px; padding: 32px 48px 96px; }}
h1, h2, h3 {{ line-height: 1.25; }}
h1 {{ border-bottom: 1px solid var(--line); padding-bottom: 8px; }}
a {{ color: var(--accent); }}
a.anchor {{ visibility: hidden; margin-left: 6px; text-decoration: none; }}
h1:hover .anchor, h2:hover .anchor, h3:hover .anchor {{ visibility: visible; }}
code {{ background: #f0f2f4; padding: 2px 5px; border-radius: 4px;
        font-size: 87%; }}
pre {{ background: #0d1117; color: #e6edf3; padding: 16px; border-radius: 8px;
       overflow-x: auto; }}
pre code {{ background: none; color: inherit; padding: 0; }}
table {{ border-collapse: collapse; width: 100%; margin: 16px 0; }}
th, td {{ border: 1px solid var(--line); padding: 6px 12px; text-align: left; }}
th {{ background: #f6f8fa; }}
blockquote {{ border-left: 4px solid var(--accent); margin: 16px 0;
              padding: 4px 16px; color: var(--muted); }}
img {{ max-width: 100%; }}
</style>
</head>
<body>
<div class="layout">
<nav>
<h1>repro-rankagg</h1>
{nav}
</nav>
<main>
{body}
</main>
</div>
</body>
</html>
"""


def _nav_html(current: str) -> str:
    entries = []
    for path, title in NAV:
        href = _relative_href(current, path[: -len(".md")] + ".html")
        cls = ' class="current"' if path == current else ""
        entries.append(f'<a{cls} href="{href}">{html.escape(title)}</a>')
    return "\n".join(entries)


def _relative_href(current: str, target: str) -> str:
    depth = len(Path(current).parent.parts)
    return "../" * depth + target


def architecture_svg() -> str:
    """The rendered module diagram (generated, kept in sync with the code)."""
    boxes = [
        # (x, y, w, label, sublabel)
        (20, 20, 200, "repro.cli", "aggregate · batch · scenarios · serve · portfolio"),
        (260, 20, 200, "repro.service", "PortfolioScheduler · ServiceFrontend · live sessions"),
        (750, 20, 140, "repro.service.http", "server · shards · failover"),
        (500, 20, 200, "repro.workloads", "Scenario registry · ScenarioMatrix · load generator · churn"),
        (140, 130, 200, "repro.experiments", "table/figure drivers"),
        (380, 130, 200, "repro.engine", "backends · ResultCache · tiering · BatchJob"),
        (20, 240, 200, "repro.evaluation", "gaps · runner · timing · guidance"),
        (260, 240, 200, "repro.algorithms", "Table 1 catalogue · anytime protocol"),
        (500, 240, 200, "repro.generators", "uniform · markov · mallows · adversarial"),
        (140, 350, 200, "repro.datasets", "Dataset · normalization · I/O"),
        (380, 350, 200, "repro.core", "Ranking · kernels · prepared plans · LiveDataset · journal"),
        # Cross-cutting: every layer reports into it when a session is
        # active, hence no arrows — it observes rather than depends.
        (750, 185, 140, "repro.telemetry", "spans · metrics · curves"),
    ]
    arrows = [
        (120, 70, 240, 170),   # cli -> experiments
        (750, 47, 465, 47),    # service.http -> service
        (360, 70, 450, 130),   # service -> engine
        (600, 70, 520, 130),   # workloads -> engine
        (240, 180, 380, 180),  # experiments -> engine
        (480, 230, 400, 240),  # engine -> algorithms
        (120, 290, 240, 290),  # evaluation -> algorithms
        (360, 290, 300, 350),  # algorithms -> datasets
        (420, 290, 460, 350),  # algorithms -> core
        (600, 290, 560, 350),  # generators -> core
        (340, 400, 380, 400),  # datasets -> core
    ]
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 910 460" '
        'font-family="system-ui, sans-serif">',
        "<defs><marker id='arr' markerWidth='8' markerHeight='8' refX='7' refY='3' "
        "orient='auto'><path d='M0,0 L7,3 L0,6 z' fill='#57606a'/></marker></defs>",
        '<rect width="910" height="460" fill="#f6f8fa"/>',
    ]
    for x1, y1, x2, y2 in arrows:
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#57606a" '
            'stroke-width="1.5" marker-end="url(#arr)"/>'
        )
    for x, y, w, label, sublabel in boxes:
        parts.append(
            f'<rect x="{x}" y="{y}" width="{w}" height="54" rx="8" fill="#fff" '
            'stroke="#1f6feb" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{x + w / 2}" y="{y + 22}" text-anchor="middle" '
            f'font-size="14" font-weight="600" fill="#1c2128">{label}</text>'
        )
        parts.append(
            f'<text x="{x + w / 2}" y="{y + 40}" text-anchor="middle" '
            f'font-size="9" fill="#57606a">{html.escape(sublabel)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def build(docs_dir: Path = DOCS_DIR, output: Path | None = None) -> Path:
    """Render the whole site into ``output`` (default ``docs/_site``)."""
    output = output or docs_dir / "_site"
    output.mkdir(parents=True, exist_ok=True)
    titles = dict(NAV)
    for path, _ in NAV:
        source = (docs_dir / path).read_text(encoding="utf-8")
        body = render_markdown(source)
        page = _TEMPLATE.format(
            title=html.escape(titles[path]),
            nav=_nav_html(path),
            body=body,
        )
        target = output / (path[: -len(".md")] + ".html")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(page, encoding="utf-8")
    assets = output / "assets"
    assets.mkdir(exist_ok=True)
    (assets / "architecture.svg").write_text(architecture_svg(), encoding="utf-8")
    return output


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true", help="validate cross-references only"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="build the site into this directory"
    )
    arguments = parser.parse_args(argv)

    problems = check()
    if problems:
        for problem in problems:
            print(f"docs check: {problem}", file=sys.stderr)
        print(f"docs check failed with {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"docs check passed ({len(NAV)} pages, cross-references OK)")

    if not arguments.check:
        site = build(output=arguments.output)
        pages = sorted(str(p.relative_to(site)) for p in site.rglob("*.html"))
        print(f"built {len(pages)} pages into {site}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
