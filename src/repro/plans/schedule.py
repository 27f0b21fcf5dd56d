"""Retired cross-job schedule merging; only a perfbench hook name remains."""


def merge_programs(members):
    """Stub for ``perfbench/tracer.py`` ``LAYER_CALLS`` (``plans.merge_programs``); no caller."""
    raise NotImplementedError("cross-job merging was removed")
