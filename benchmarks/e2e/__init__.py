"""End-to-end benchmark of the diagnosis path (see README.md here).

``run.py`` is the entry point named in the root ``BENCHMARK.json``;
``python -m benchmarks.e2e`` reaches the same ``main``.
"""
