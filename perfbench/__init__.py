"""End-to-end benchmark of the CBV flow: ``python3 perfbench/run.py``."""
