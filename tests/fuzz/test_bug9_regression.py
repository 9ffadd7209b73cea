"""Bug 9 (ROADMAP item 1), pinned by name.

A four-op schedule found by Hypothesis's blind draw: a file created
*after* an unlink recovers holding the unlinked file's bytes when power
is cut while the drain's data-block writes are in flight. Not fixed
here — the fix is its own ``bugfix`` PR, which deletes the marker below
— but pinned to the index: the case is fully deterministic, so the
crash-point count and the two violating indices also serve as a canary
for the engine's dispatch order (any reordering of same-instant events
moves them).
"""

import pytest

from repro.faults import CrashExplorer
from repro.fuzz import FuzzCase, build_fuzz_run

BUG9_SCHEDULE = (("append", 0, 3, 1), ("ftruncate", 0, 0), ("unlink", 0),
                 ("pwrite", 0, 1, 0, 0))
_BROKEN = ("block.write_completed", ["durable_linearizability"])


class Bug9StillPresent(Exception):
    """Raised only after the violations matched the pinned ones exactly."""


@pytest.mark.xfail(strict=True, raises=Bug9StillPresent,
                   reason="bug 9: sub-page replay onto a reused Ext4 block "
                          "(ROADMAP item 1); the bugfix PR removes this marker")
def test_bug9_file_created_after_unlink_recovers_its_own_bytes():
    explorer = CrashExplorer(
        build_fuzz_run(FuzzCase(schedule=BUG9_SCHEDULE)),
        drop_subsets=0)
    points = explorer.enumerate_points()
    violating = {}
    for index in range(len(points)):
        result = explorer.run_case(index)
        if result.violations:
            violating[index] = (result.point.site, sorted(
                {violation.invariant for violation in result.violations}))
    if violating:
        # An AssertionError here is a real failure, not the expected one.
        assert len(points) == 76
        assert violating == {59: _BROKEN, 60: _BROKEN}
        raise Bug9StillPresent(violating)
