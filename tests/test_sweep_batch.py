"""A chi sweep steps the members that share solver.batch_key as one flat
batch.  Every member must still write the bytes of its own `gogrow run`,
whatever the batch, the number of processes, or a neighbour's failure."""

import multiprocessing

import numpy as np
import pytest

from gogrow import cli, solver
from gogrow.cli import main

MODELS = ("local_u", "nonlocal_p", "nonlocal_rho", "fkpp")

CONFIG = """
[model]
kind = "{model}"
chi = {chi}
[grid]
dx = 0.1
x_left = -10
width = 24
[run]
t_end = 2.0
frame = "{frame}"
left_pad = 9.5
right_pad = 13.5
[output]
trace_every = 0.25
snapshot_every = 1.0
"""

# A moving frame travels at c*(chi), which is 2 for every chi <= 1: only
# those share a frame, and so a batch.
BATCH_CHIS = {"lab": (0.5, 1.0, 2.0), "moving": (0.25, 0.5, 1.0)}
# On this grid the moving frame's advective step limit is the tightest for
# these chi, so their dt differs from the batch's, and so does their frame:
# each is a batch of one.  In the lab frame the mesh-Peclet bound keeps the
# diffusion limit the tightest, and the FKPP step has no chi in it: there
# every chi shares dt.
SINGLETON_CHI = {"local_u": 3.5, "nonlocal_p": 12.0, "nonlocal_rho": 12.0, "fkpp": 3.0}


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _sweep(tmp_path, model, frame, chis, name, jobs=1):
    cfg = tmp_path / f"{name}.toml"
    cfg.write_text(CONFIG.format(model=model, chi=1.0, frame=frame))
    out = tmp_path / name
    rc = main(["sweep", "--chi", ",".join(map(str, chis)), "--config", str(cfg), "--out", str(out),
               "--jobs", str(jobs)])
    return rc, out


def _run(tmp_path, model, frame, chi):
    cfg = tmp_path / f"run_{chi}.toml"
    cfg.write_text(CONFIG.format(model=model, chi=chi, frame=frame))
    out = tmp_path / f"run_{chi}"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    return rc, out


@pytest.mark.parametrize("frame", ["lab", "moving"])
@pytest.mark.parametrize("model", MODELS)
def test_sweep_members_equal_standalone_runs(tmp_path, model, frame):
    chis = BATCH_CHIS[frame] + (SINGLETON_CHI[model],)
    sims = [cli.parse_config(CONFIG.format(model=model, chi=chi, frame=frame)).sim for chi in chis]
    keys = [solver.batch_key(sim) for sim in sims]
    assert len(set(keys[:-1])) == 1
    assert (keys[-1] != keys[0]) == (frame == "moving")

    rc1, serial = _sweep(tmp_path, model, frame, chis, "serial", jobs=1)
    rc2, parallel = _sweep(tmp_path, model, frame, chis, "parallel", jobs=2)
    assert _files(serial) == _files(parallel)
    assert rc1 == rc2 == 0
    for chi in chis:
        rc, alone = _run(tmp_path, model, frame, chi)
        assert rc == 0
        member = _files(serial / f"chi_{chi:.12g}")
        assert member == _files(alone), f"chi = {chi}"
        assert {"trace.csv", "summary.json", "snapshot_2.csv"} <= set(member)
        # the window recentred during the run
        last = np.genfromtxt(alone / "snapshot_2.csv", delimiter=",", names=True)
        assert last["x"][0] != -10.0


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_member_leaves_the_others_alone(tmp_path, poison, jobs):
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched batch reaches worker processes only when they are forked")
    rc, clean = _sweep(tmp_path, "nonlocal_p", "lab", BATCH_CHIS["lab"], "clean")
    assert rc == 0
    poison(1.0, 0.5)  # the chi = 1 member fails at its first step past t = 0.5
    rc, poisoned = _sweep(tmp_path, "nonlocal_p", "lab", BATCH_CHIS["lab"], "poisoned", jobs=jobs)
    assert rc == 2
    rc, alone = _run(tmp_path, "nonlocal_p", "lab", 1.0)
    assert rc == 2
    failed = _files(poisoned / "chi_1")
    assert failed == _files(alone)
    assert b'"status": 2' in failed["summary.json"]
    assert b"non-finite field value produced" in failed["summary.json"]
    for chi in (0.5, 2.0):
        assert _files(poisoned / f"chi_{chi:.12g}") == _files(clean / f"chi_{chi:.12g}")
    rows = (poisoned / "sweep_summary.csv").read_text().splitlines()
    clean_rows = (clean / "sweep_summary.csv").read_text().splitlines()
    assert [rows[i] for i in (0, 1, 3)] == [clean_rows[i] for i in (0, 1, 3)]
    assert rows[2].startswith("1,") and rows[2].endswith(",0")


def test_sweep_jobs_below_one_runs_serially(tmp_path):
    cfg = cli.parse_config(CONFIG.format(model="fkpp", chi=1.0, frame="lab").replace("t_end = 2.0", "t_end = 0.5"))
    assert cli.cmd_sweep([0.5, 2.0], cfg, tmp_path / "zero", jobs=0) == 0
    assert cli.cmd_sweep([0.5, 2.0], cfg, tmp_path / "one", jobs=1) == 0
    assert _files(tmp_path / "zero") == _files(tmp_path / "one")
