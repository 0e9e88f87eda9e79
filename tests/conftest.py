"""Session hooks for the test suite.

The engine's generated code (`pbclab.sim._compiled`) keeps no line table,
so a traceback entry in it has `tb_lineno` None, which pytest's failure
report cannot format: a test failing inside generated code would stop the
session with an INTERNALERROR instead of reporting.  Before the report is
made, each such entry is rebuilt on the same frame at line 1.
"""

import types

import pytest


def _with_lines(tb):
    """The traceback chain tb, every entry without a line number rebuilt
    (with the entries before it, which point to it) at line 1."""
    entries = []
    while tb is not None:
        entries.append(tb)
        tb = tb.tb_next
    out = None
    for entry in reversed(entries):
        if entry.tb_lineno is None or out is not entry.tb_next:
            entry = types.TracebackType(out, entry.tb_frame, entry.tb_lasti, entry.tb_lineno or 1)
        out = entry
    return out


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    if call.excinfo is None:
        return
    pending, seen, changed = [call.excinfo.value], set(), False
    while pending:  # the exception and every exception chained to it
        exc = pending.pop()
        if exc is None or id(exc) in seen:
            continue
        seen.add(id(exc))
        tb = _with_lines(exc.__traceback__)
        if tb is not exc.__traceback__:
            exc.__traceback__, changed = tb, True
        pending += [exc.__cause__, exc.__context__]
    if changed:
        call.excinfo = pytest.ExceptionInfo.from_exception(call.excinfo.value)
