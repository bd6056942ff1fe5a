"""Layered perf ledger — the repo's benchmark (see README.md here).

``run.py`` is the single entry point; the other modules are imported by
it after the environment has been pinned, never the other way round.
"""
