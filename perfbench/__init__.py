"""Repository benchmark: serving, live writes and paper batches, end to end.

Run it from the repository root with ``python3 perfbench/run.py --workload
NAME --seed N --seconds S --trace 0|1``; see ``perfbench/README.md``.
"""
