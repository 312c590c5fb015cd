"""Fast tests of the benchmark's own references and tracing.

    python3 -m pytest -q bench
"""

import math

import numpy as np
import pytest

import run

run.import_gogrow()

import layers  # noqa: E402
import reference  # noqa: E402
from gogrow import cli, diagnostics, solver  # noqa: E402
from gogrow.diagnostics import TraceRecorder  # noqa: E402


def test_c_star_hand_values():
    assert [reference.c_star(chi) for chi in (0.0, 0.5, 1.0, 2.0, 4.0)] == [2.0, 2.0, 2.0, 2.5, 4.25]


def test_wave_hand_values():
    e = math.e
    assert reference.wave("u", 2.0, [-3.0, 0.0, 1.0]) == pytest.approx([1.0, 1.0, e**-2])
    assert reference.wave("rho", 2.0, [-1.0, 1.0]) == pytest.approx([2.0, 2.0 * e**-2])
    assert reference.wave("p", 2.0, [-1.0, 0.0, 1.0]) == pytest.approx([3.0, 1.0, e**-2])
    assert reference.wave("u", 0.5, [-1.0, 1.0]) == pytest.approx([1.0, 1.5 / e])
    assert reference.wave("rho", 0.5, [-1.0, 1.0]) == pytest.approx([1.0 / 1.5, 1.0 / e])
    assert reference.wave("p", 0.5, [-1.0, 0.0, 1.0]) == pytest.approx([1.0 + 1.0 / 1.5, 1.0, 2.0 / 1.5 / e])
    assert reference.wave("u", 0.0, [2.0]) == pytest.approx([3.0 * e**-2])


@pytest.mark.parametrize("chi", [0.0, 0.5, 1.0, 2.0])
def test_wave_mass_is_integral_of_density(chi):
    x = np.linspace(-5.0, 30.0, 35001)
    rho = reference.wave("rho", chi, x)
    p = reference.wave("p", chi, x)
    # P(x) - P(30) is the integral of rho over (x, 30)
    seg = 0.5 * (rho[1:] + rho[:-1]) * np.diff(x)
    tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    assert np.max(np.abs(p - p[-1] - tail)) < 1e-6


def test_delay_fit_recovers_r():
    t = np.arange(0.0, 40.01, 0.5)
    with np.errstate(divide="ignore"):
        x = 2.0 * t - 1.5 * np.log(t) + 0.7
    x[0] = 0.0
    assert reference.delay_fit(t, x, 2.0) == pytest.approx(1.5, abs=1e-9)


def test_tail_percentile_rule():
    assert reference.tail_percentile(range(1, 40)) is None
    assert reference.tail_percentile(range(1, 41)) == (75.0, 30)
    assert reference.tail_percentile(range(100, 0, -1)) == (90.0, 90)


def test_layer_self_time():
    spans = [
        ["solver.run", 0.0, 10.0, -1, ("local_u", 100, 10, 0)],
        ["diagnostics.sample", 1.0, 3.0, 0, None],
        ["profiles.eta", 1.5, 2.5, 1, None],
    ]
    m = layers.layer_metrics(spans, rounds=1, solve_s=10.0)
    assert m["solver.step_us.local_u"][0] == pytest.approx(8.0 / 100 * 1e6)
    assert m["solver.node_updates"][0] == 1000
    assert m["profiles.eta_ms"][0] == pytest.approx(1000.0)
    assert m["diagnostics.share"][0] == pytest.approx(0.2)


def _wrapped_attributes():
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in layers._targets()}


def _tiny_run():
    cfg = solver.make_config(model="local_u", chi=0.5, dx=0.1, t_end=0.5, x_left=-10.0, width=30.0)
    solver.run(cfg, observers=[TraceRecorder()], trace_every=0.25)


def test_traced_run_restores_every_attribute():
    before = _wrapped_attributes()
    tracer = layers.Tracer()
    with layers.traced(tracer):
        during = _wrapped_attributes()
        _tiny_run()
    assert all(during[key] is not before[key] for key in before)
    assert _wrapped_attributes() == before
    names = {span[0] for span in tracer.spans}
    assert {"solver.run", "diagnostics.sample", "profiles.eta", "lambertw.array"} <= names
    assert solver.run is before[solver, "run"] and cli.cmd_run is before[cli, "cmd_run"]
    assert diagnostics.TraceRecorder.__call__ is before[diagnostics.TraceRecorder, "__call__"]


def test_traced_restores_after_an_error():
    before = _wrapped_attributes()
    with pytest.raises(ZeroDivisionError):
        with layers.traced(layers.Tracer()):
            1 / 0
    assert _wrapped_attributes() == before


def test_workload_names_match():
    import workloads

    assert run.NAMES == tuple(workloads.WORKLOADS)
