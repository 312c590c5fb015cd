"""Absolute values of short runs, pinned.

Speeds, delay fits and envelope margins do not see a constant shift of
the front, nor a small change to every value of a trace.  These tests run
`gogrow run` on one short case per model (dx = 0.1, T = 2, lab frame,
Heaviside data) and compare every column of its trace.csv with values
written down from the solver before its node-skipping kernel existed.
They compare numbers, not bytes, to a relative 1e-9: numpy versions may
sum in another order.  Values at roundoff level (the density model's
shape defect of -3.6e-15) get an absolute floor of 1e-12.
"""

import numpy as np
import pytest

from gogrow.cli import main

CONFIG = """\
[model]
kind = "{model}"
chi = {chi}
[grid]
dx = 0.1
x_left = -20
width = 40
[run]
t_end = 2
left_pad = 10
right_pad = 15
[output]
trace_every = 0.25
"""

PINNED = {
    ("local_u", 0.5): """\
t,x_front,I,min_shape_defect,weighted_defect_sup,rh_residual
0,1.00000001169e-07,1.05083319241,-0,-0,4.5
0.25,-2.60029067616,0.979819223942,-0,0.287146554676,0.221942859261
0.5,-3.19381066781,0.93666226937,-0,0.217860360461,0.0901189174993
0.75,-3.40559209566,0.903573395865,-0,0.163375657516,0.036211609843
1,-3.41544591456,0.876274354236,-0,0.12979658794,0.00637504764406
1.25,-3.29350530612,0.852859644915,-0,0.107324539002,0.0127370925979
1.5,-3.08561080608,0.832276599408,-0,0.0914931165811,0.0262394071978
1.75,-2.81551266965,0.813868793844,-0,0.0796992935427,0.0362682016538
2,-2.50092897642,0.797196439239,-0,0.0705539725255,0.0440100062417
""",
    ("nonlocal_p", 2.0): """\
t,x_front,I,min_shape_defect,weighted_defect_sup,rh_residual
0,0,6.04749466396,-1,-0,0
0.25,0.227842151537,6.04613866851,-1,0.172861191421,0.608156577469
0.5,0.763140084384,6.04466062874,-1,0.0651990097389,0.324158530798
0.75,1.32898226136,6.04309167509,-1,0.0305823085867,0.251081923173
1,1.90801530131,6.04145464895,-1,0.0157884122272,0.159602106226
1.25,2.49531158157,6.0397667523,-1,0.00858960921638,0.117456948714
1.5,3.08842610384,6.03804099096,-1,0.00482781899355,0.118518954957
1.75,3.68538087219,6.03628719951,-1,0.00276921935111,0.113600999965
2,4.2852825502,6.03451280242,-1,0.00161939323996,0.10481059881
""",
    ("nonlocal_rho", 1.0): """\
t,x_front,I,min_shape_defect,weighted_defect_sup,rh_residual
0,-0.9,1.05083319241,-3.5527136788e-15,0.9,1
0.25,-0.539822761296,1.05016933602,-3.5527136788e-15,0.220405281171,0.191153327804
0.5,-0.127673519551,1.04949500372,-3.5527136788e-15,0.156511374233,0.138364597671
0.75,0.309191228314,1.04881182768,-3.5527136788e-15,0.125550559377,0.0981635947451
1,0.76003020132,1.04812201522,-3.5527136788e-15,0.106286460437,0.068387305603
1.25,1.21719479092,1.04742584588,-3.5527136788e-15,0.0927728991952,0.0397421846134
1.5,1.67926430508,1.04672471816,-3.5527136788e-15,0.0827475550495,0.0392601616926
1.75,2.14663325341,1.0460191974,-3.5527136788e-15,0.0748406839543,0.0288970436178
2,2.61505259316,1.04530953373,-3.5527136788e-15,0.0684464216279,0.0166631072111
""",
    ("fkpp", 0.5): """\
t,x_front,I,min_shape_defect,weighted_defect_sup,rh_residual
0,0.05,nan,nan,nan,nan
0.25,0.120254177118,nan,nan,nan,nan
0.5,0.248836030413,nan,nan,nan,nan
0.75,0.41507056001,nan,nan,nan,nan
1,0.611205183478,nan,nan,nan,nan
1.25,0.832608383691,nan,nan,nan,nan
1.5,1.07604468691,nan,nan,nan,nan
1.75,1.33893829509,nan,nan,nan,nan
2,1.61923674483,nan,nan,nan,nan
""",
}


def _columns(text: str) -> dict[str, np.ndarray]:
    header, *rows = [line.split(",") for line in text.splitlines()]
    return {name: np.array([float(row[i]) for row in rows]) for i, name in enumerate(header)}


@pytest.mark.parametrize("model,chi", sorted(PINNED))
def test_trace_matches_pinned_values(tmp_path, model, chi):
    config = tmp_path / "run.toml"
    config.write_text(CONFIG.format(model=model, chi=chi))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    got = _columns((tmp_path / "out" / "trace.csv").read_text())
    want = _columns(PINNED[model, chi])
    assert list(got) == list(want)
    for name, values in want.items():
        np.testing.assert_allclose(got[name], values, rtol=1e-9, atol=1e-12, equal_nan=True,
                                   err_msg=f"{model} column {name}")
