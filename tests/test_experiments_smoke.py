"""Fast smoke tests over the experiment runners (tiny durations).

The full-shape assertions are the paper-claims tests
(tests/test_paper_claims.py, tests/paper_claims_long.py); these verify
the scenario plumbing end to end at a fraction of their size.
"""

import pytest

from repro.experiments.container_case import run_fig13b_path
from repro.experiments.ovs_case import CASES, ovs_costs, run_case
from repro.experiments.overhead import run_fig7a
from repro.experiments.topologies import (
    build_netperf_xen,
    build_overlay_case,
    build_ovs_case,
    build_two_host_kvm,
    build_xen_case,
)
from repro.experiments.xen_case import run_fig10a_condition

SHORT = 100_000_000  # 100 ms of virtual time


class TestTopologies:
    def test_two_host_kvm_builds(self):
        scene = build_two_host_kvm(seed=1)
        assert scene.vm1.node.name == "host1/vm1"
        assert scene.ovs1.ports and scene.ovs2.ports

    def test_netperf_xen_builds(self):
        scene = build_netperf_xen(seed=1)
        assert scene.server_vm.vcpus

    def test_ovs_case_builds_with_n_vms(self):
        scene = build_ovs_case(seed=1, num_vms=4)
        assert len(scene.vms) == 4
        assert len(scene.ovs.ports) == 4

    def test_xen_case_builds(self):
        scene = build_xen_case(seed=1)
        assert scene.container.host_veth_name == "veth684a1d9"
        assert scene.hog_vm is not None

    def test_overlay_case_builds(self):
        scene = build_overlay_case(seed=1)
        assert scene.container1.ip != scene.container2.ip


class TestRunnersSmoke:
    def test_fig7a_short(self):
        result = run_fig7a(duration_ns=SHORT, mps=2000)
        assert result.baseline.count > 100
        assert abs(result.avg_overhead_pct) < 5.0

    def test_ovs_case_I_uncongested(self):
        result = run_case("I", duration_ns=SHORT, trace=True)
        assert result.sockperf.avg_ns < 100_000
        assert result.decomposition is not None

    @pytest.mark.parametrize("case", ["II", "III"])
    def test_ovs_congested_cases(self, case):
        result = run_case(case, duration_ns=SHORT)
        assert result.sockperf.avg_ns > 100_000

    def test_case_names_validated(self):
        with pytest.raises(ValueError):
            run_case("IV")

    def test_xen_baseline_vs_shared(self):
        base = run_fig10a_condition("baseline", duration_ns=SHORT)
        shared = run_fig10a_condition("shared", duration_ns=SHORT)
        assert shared.sockperf.p999_ns > 5 * base.sockperf.p999_ns

    def test_fig13b_vm_path_short(self):
        result = run_fig13b_path(False, duration_ns=60_000_000)
        assert result.hops
