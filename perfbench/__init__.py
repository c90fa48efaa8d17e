"""Repository benchmark: end-to-end serving metrics plus a traced
per-layer breakdown.  Run ``python3 perfbench/run.py --help``."""
