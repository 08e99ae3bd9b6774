"""The kernel events a simulated run schedules, pinned exactly.

Every paper table comes out of the DES, and its cost is one kernel event
per happening: a transfer is one event at its arrival, a DD ack's bell
rings only for a waiting writer, and a process step is one resume.  A hop
that comes back (an event scheduled only to schedule another, or a bell
nobody waits on) leaves every makespan as it was and shows only here, as a
count that grew.  The points are ``test_sim_pins.py``'s, one per policy.

A change that means to move a count states the old and the new one.
"""

import pytest

from repro.sim import Environment
from repro.viz.profile import dataset_25gb
from tests.viz.test_sim_pins import SCALE, point_key, run_point

BUDGET = {
    ("R-E-Ra-M", "zbuffer", "RR"): 6376,
    ("R-ERa-M", "active", "WRR"): 6026,
    ("RE-Ra-M", "active", "DD"): 4048,
}


@pytest.fixture(scope="module")
def profile():
    return dataset_25gb(scale=SCALE)


@pytest.mark.parametrize("point", sorted(BUDGET), ids=lambda p: point_key(*p))
def test_a_point_schedules_its_pinned_events(profile, point):
    env = Environment()
    run_point(profile, *point, env=env)
    assert env.scheduled == BUDGET[point]
