"""Shared test helpers.

``make_runtime`` is the one sanctioned way for white-box tests to get a
bare :class:`~repro.nvbit.runtime.ToolRuntime`: public code must go
through :class:`repro.api.Session` (direct construction raises), but
tests of the runtime layer itself need the naked object without a
session wrapped around it.  ``RecBinFPE``/``RecDetector`` log the raw
channel stream their tool receives.
"""

import dataclasses

from repro.binfpe import BinFPE
from repro.fpx import FPXDetector
from repro.nvbit.runtime import ToolRuntime


def make_runtime(device, tool=None, **knobs):
    """Construct a ToolRuntime through the internal session gate."""
    return ToolRuntime(device, tool, _via_session=True, **knobs)


def stats_fields(stats) -> dict:
    """Every field of a ``RunStats``/``LaunchStats`` but its cost model."""
    return {f.name: getattr(stats, f.name)
            for f in dataclasses.fields(stats) if f.name != "cost"}


class _Recording:
    """Mixin: log the raw channel stream a tool receives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.messages = []

    def receive(self, messages):
        messages = list(messages)
        self.messages.extend(messages)
        super().receive(messages)


class RecBinFPE(_Recording, BinFPE):
    pass


class RecDetector(_Recording, FPXDetector):
    pass
