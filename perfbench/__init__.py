"""The repository benchmark: the paper's experiment, end to end and per layer.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
