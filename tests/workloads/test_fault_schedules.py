"""The paper workloads under the adversarial fault battery.

Acceptance (ISSUE 3): every paper workload — minx (vanilla and
protected), littled, the nbench harness, and the CVE-2013-2028 exploit
run — completes under each battery schedule, and the sMVX monitor stays
in lockstep: *zero spurious divergences*.  Faults only ever land on
leader-executed syscalls (follower syscalls are emulated copies), so a
schedule may slow a workload down or neuter an attack, but it must never
make the monitor cry wolf.
"""

import pytest

from repro.apps import LittledServer, MinxServer
from repro.apps.nbench.harness import NbenchHarness
from repro.attacks import run_exploit
from repro.attacks.cve_2013_2028 import VICTIM_DIRECTORY
from repro.deploy import LITTLED_PROTECT, MINX_PROTECT
from repro.kernel import Kernel
from repro.kernel.faults import battery
from repro.workloads import ApacheBench

BATTERY = battery()
IDS = [s.name for s in BATTERY]


#: fault schedules legitimately stall reads (spurious EAGAIN, segment
#: pacing); the client needs more patience than the happy path's 2.
STALLS = 64


def _ab(kernel, server, requests):
    return ApacheBench(kernel, server, max_stalls=STALLS).run(requests)


@pytest.mark.parametrize("schedule", BATTERY, ids=IDS)
def test_minx_vanilla_completes_under_faults(schedule):
    kernel = Kernel()
    server = MinxServer(kernel)
    kernel.faults.install(schedule)
    assert server.start() == 0
    result = _ab(kernel, server, 5)
    assert result.requests_completed == 5
    assert result.failures == 0
    assert result.status_counts == {200: 5}
    assert result.bytes_received == 5 * 4096
    assert kernel.faults.injected_total > 0     # the battery actually bit


@pytest.mark.parametrize("schedule", BATTERY, ids=IDS)
def test_minx_protected_no_spurious_divergence(schedule):
    kernel = Kernel()
    server = MinxServer(kernel, protect=MINX_PROTECT, smvx=True)
    kernel.faults.install(schedule)
    assert server.start() == 0
    result = _ab(kernel, server, 5)
    assert result.requests_completed == 5
    assert result.status_counts == {200: 5}
    assert server.served == 5
    assert not server.alarms.triggered          # zero spurious divergences
    assert kernel.faults.injected_total > 0


@pytest.mark.parametrize("schedule", BATTERY, ids=IDS)
def test_littled_protected_no_spurious_divergence(schedule):
    kernel = Kernel()
    server = LittledServer(kernel, protect=LITTLED_PROTECT, smvx=True)
    kernel.faults.install(schedule)
    assert server.start() == 0
    result = _ab(kernel, server, 4)
    assert result.requests_completed == 4
    assert result.failures == 0
    assert not server.alarms.triggered
    assert kernel.faults.injected_total > 0


@pytest.mark.parametrize("schedule",
                         [s for s in BATTERY
                          if s.name in ("eintr-storm", "everything")],
                         ids=lambda s: s.name)
def test_nbench_consistent_under_faults(schedule):
    # the harness itself raises on any divergence alarm; checksums must
    # also agree between vanilla and protected runs
    harness = NbenchHarness(runs=1, fault_schedule=schedule)
    result = harness.run_workload(0)
    assert result.consistent
    assert result.vanilla_ns > 0 and result.smvx_ns > 0


@pytest.mark.parametrize("schedule", BATTERY, ids=IDS)
def test_cve_exploit_never_lands_under_faults(schedule):
    """The security invariant survives every schedule: the ROP payload's
    mkdir never happens under sMVX.  Depending on how a schedule slices
    the attacker's stream the exploit is either *detected* (the follower
    faults, a genuine divergence) or *neutered* (short reads deny it the
    single huge recv the overflow needs) — both are wins; a created
    directory would be a loss."""
    kernel = Kernel()
    server = MinxServer(kernel, protect=MINX_PROTECT, smvx=True)
    kernel.faults.install(schedule)
    assert server.start() == 0
    outcome = run_exploit(server)
    assert not outcome.directory_created
    assert not kernel.vfs.is_dir(VICTIM_DIRECTORY)
    if not outcome.divergence_detected:
        # neutered, not silently-succeeded: no attack effect at all
        assert not outcome.attack_succeeded


def test_cve_still_detected_with_no_schedule_installed():
    """Regression guard: arming-then-disarming the plane leaves the
    baseline §4.2 result intact."""
    kernel = Kernel()
    server = MinxServer(kernel, protect=MINX_PROTECT, smvx=True)
    kernel.faults.install(battery()[0])
    kernel.faults.install(None)
    assert server.start() == 0
    outcome = run_exploit(server)
    assert outcome.attack_detected_and_blocked
