"""Absolute values of short runs, pinned.

Speeds, delay fits and envelope margins do not see a constant shift of
the front, nor a small change to every value of a trace.  These tests run
`gogrow run` on one short case per model (dx = 0.1, T = 2, lab frame,
Heaviside data) and compare every column of its trace.csv with values
written down from the solver.  PINNED holds them at cfl_sigma = 0.4,
written before the node-skipping kernel existed; PINNED_DEFAULT at the
default step, written with every node stepped.  At the default, dt =
3e-3 does not divide trace_every, so samples fall on the first step at
or past each multiple.  They compare numbers, not bytes, to a relative
1e-9: numpy versions may sum in another order.  Values at roundoff level
(the density model's shape defect of -3.6e-15) get an absolute floor of
1e-12.
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
{sigma_line}left_pad = 10
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


PINNED_DEFAULT = {
    ("fkpp", 0.5): """\
t,x_front,I,min_shape_defect,weighted_defect_sup,rh_residual
0,0.05,nan,nan,nan,nan
0.252,0.121151002645,nan,nan,nan,nan
0.501,0.249496876445,nan,nan,nan,nan
0.75,0.415127842346,nan,nan,nan,nan
1.002,0.612907381407,nan,nan,nan,nan
1.251,0.833516336211,nan,nan,nan,nan
1.5,1.07594824311,nan,nan,nan,nan
1.752,1.34091851414,nan,nan,nan,nan
2,1.61892385979,nan,nan,nan,nan
""",
    ("local_u", 0.5): """\
t,x_front,I,min_shape_defect,weighted_defect_sup,rh_residual
0,1.00000001169e-07,1.05083319241,-0,-0,4.5
0.252,-2.60046550582,0.978942603671,-0,0.288633097601,0.219278364263
0.501,-3.19495421838,0.935642320457,-0,0.218090824132,0.0898248496005
0.75,-3.40723850434,0.902296797709,-0,0.16361621283,0.0363911204956
1.002,-3.41610002014,0.874393807515,-0,0.129756010659,0.00648513642608
1.251,-3.29314150639,0.850703130395,-0,0.107363105992,0.0124529929628
1.5,-3.08500832874,0.829828395061,-0,0.0915564836629,0.0258700226819
1.752,-2.81125301253,0.810907002207,-0,0.0796436306059,0.0359302061895
2,-2.49886382277,0.794019371517,-0,0.070545466844,0.0436004637276
""",
    ("nonlocal_p", 2.0): """\
t,x_front,I,min_shape_defect,weighted_defect_sup,rh_residual
0,0,6.04749466396,-1,-0,0
0.252,0.231562874422,6.04494110396,-1,0.17218932334,0.604865106799
0.501,0.764501293159,6.04229728909,-1,0.0656950691471,0.327650059814
0.75,1.32756930636,6.03956437959,-1,0.0311234748077,0.257275096955
1.002,1.91082190413,6.03673085707,-1,0.0160646032886,0.171597283325
1.251,2.49517404881,6.03388132722,-1,0.00883298301483,0.125083560891
1.5,3.08545736106,6.0309952393,-1,0.00499618238824,0.13304946809
1.752,3.68657490493,6.02804707221,-1,0.00288629280487,0.119139832782
2,4.28129834103,6.02513560779,-1,0.00170266991027,0.120667809391
""",
    ("nonlocal_rho", 1.0): """\
t,x_front,I,min_shape_defect,weighted_defect_sup,rh_residual
0,-0.9,1.05083319241,-3.5527136788e-15,0.9,1
0.252,-0.536861024075,1.04963769111,-3.5527136788e-15,0.219582937668,0.188899106858
0.501,-0.126234431749,1.0484470055,-3.5527136788e-15,0.156517643687,0.137901384878
0.75,0.308546611411,1.04724857352,-3.5527136788e-15,0.125729580489,0.0962541194004
1.002,0.76291502261,1.04602998075,-3.5527136788e-15,0.106286797877,0.0691012341651
1.251,1.21751120729,1.04482037203,-3.5527136788e-15,0.092825156657,0.0398989025493
1.5,1.6777420627,1.04360684231,-3.5527136788e-15,0.0827916955724,0.0405287963714
1.752,2.14857487773,1.04237530149,-3.5527136788e-15,0.0747915686466,0.0306152494741
2,2.61271127268,1.04116438115,-3.5527136788e-15,0.0684545590532,0.0154489835494
""",
}


def _columns(text: str) -> dict[str, np.ndarray]:
    header, *rows = [line.split(",") for line in text.splitlines()]
    return {name: np.array([float(row[i]) for row in rows]) for i, name in enumerate(header)}


def _check(tmp_path, model, chi, sigma_line, pinned):
    config = tmp_path / "run.toml"
    config.write_text(CONFIG.format(model=model, chi=chi, sigma_line=sigma_line))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    got = _columns((tmp_path / "out" / "trace.csv").read_text())
    want = _columns(pinned)
    assert list(got) == list(want)
    for name, values in want.items():
        np.testing.assert_allclose(got[name], values, rtol=1e-9, atol=1e-12, equal_nan=True,
                                   err_msg=f"{model} column {name}")


@pytest.mark.parametrize("model,chi", sorted(PINNED))
def test_trace_matches_pinned_values(tmp_path, model, chi):
    _check(tmp_path, model, chi, "cfl_sigma = 0.4\n", PINNED[model, chi])


@pytest.mark.parametrize("model,chi", sorted(PINNED_DEFAULT))
def test_trace_at_the_default_step_matches_pinned_values(tmp_path, model, chi):
    _check(tmp_path, model, chi, "", PINNED_DEFAULT[model, chi])
