"""The import budget of a vrld process.

scipy is loaded only by the two computations that use it, ``vrld theory chi``
and the 1-d Gibbs quadrature behind ``kl_gaussian_vs_gibbs_1d``, so every
other command starts without it.  A run loads no numpy or scipy module for
the first time: every such import is paid when vrld is imported, not inside
the chains' steps.  Each check runs in a fresh interpreter, where nothing
else has imported these modules yet.  The last test guards the public
surface: the exported names, and the library calls the benchmark makes.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

QUAD_CFG = """
[potential]
name = gaussian_quadratic
n = 16
d = 2
seed = 7
zero_mean = true

[sampler]
variant = svrg_ld
eta = 0.005
gamma = 1.0
batch = 4
epoch = 4
steps = 40

[theory]
alpha = 1.0
H0 = 8.0

[run]
replicates = 3
seed = 5
thin = 1
out = {out}
"""

LOGISTIC_CFG = """
[potential]
name = logistic_l2
data = {data}
lam = 0.5

[sampler]
variant = sgld
eta = 0.05
batch = 3
epoch = 4
steps = 40

[run]
replicates = 3
seed = 11
thin = 5
x0 = 2.0, 2.0
out = {out}

[compare]
variants = lmc, sgld, svrg_ld, sarah_ld
metric = mean_f
threshold = 1.0
"""


def fresh_python(code: str, cwd: Path) -> dict:
    """Run ``code`` in a new interpreter with vrld's sources on the path;
    it prints one JSON object on its last line, which is returned."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_vrld_loads_no_scipy(tmp_path):
    loaded = fresh_python("""
        import json, sys
        import vrld, vrld.cli, vrld.diagnostics, vrld.theory
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """, tmp_path)
    assert loaded == []


def test_scipy_computations_keep_their_values_in_a_fresh_process(tmp_path):
    """The two computations that import scipy on first use give the values
    they gave with scipy imported at module level."""
    got = fresh_python("""
        import contextlib, io, json
        from vrld import diagnostics, make_builtin
        from vrld.cli import main
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["theory", "chi", "d=1", "L=1", "M=1", "b=0.25"])
        obj = make_builtin("double_well", {"a": 1.0, "d": 1, "n_copies": 16, "box": 2.0})
        kl = diagnostics.kl_gaussian_vs_gibbs_1d(0.0, 0.1, obj, 4.0)
        print(json.dumps({"rc": rc, "stdout": out.getvalue(), "kl": kl}))
    """, tmp_path)
    assert got["rc"] == 0
    first = got["stdout"].splitlines()[0]
    assert first.startswith("chi = ")
    assert float(first.removeprefix("chi = ")) == pytest.approx(1.2231435513142097, rel=1e-9)
    assert got["kl"] == pytest.approx(1.2422802561861368, rel=1e-9)


# each timed call: the config whose objective is built before it, and the
# statements, which set the exit code rc
RUN_CALLS = {
    "run": ("quad.cfg", 'rc = main(["run", "--config", "quad.cfg", "--quiet"])'),
    "compare": ("logistic.cfg", 'rc = main(["compare", "--config", "logistic.cfg", "--quiet"])'),
    "ensemble": ("quad.cfg", 'res = vrld.run_ensemble(obj, "svrg_ld", 200, 8, eta=0.01, gamma=1.0, B=4, m=4, '
                 'seed=3, checkpoints=[8]); vrld.diagnostics.moment_kl_surrogate(res.checkpoints[8], '
                 'vrld.diagnostics.gibbs_moments(obj, 1.0)); rc = 0'),
}


@pytest.mark.parametrize("command", RUN_CALLS)
def test_a_run_imports_no_numpy_or_scipy_module(tmp_path, command):
    """A run (the README experiment), a logistic compare and an ensemble with
    its moment KL, each in its own process after its objective is built, load
    no numpy or scipy module that was not loaded already."""
    rng = np.random.default_rng(4)
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{a!r} {b!r} {float(rng.random() < 0.5)!r}\n"
                            for a, b in rng.standard_normal((24, 2)).tolist()))
    (tmp_path / "quad.cfg").write_text(QUAD_CFG.format(out=tmp_path / "quad"))
    (tmp_path / "logistic.cfg").write_text(LOGISTIC_CFG.format(data=data, out=tmp_path / "logistic"))
    config, call = RUN_CALLS[command]
    got = fresh_python(f"""
        import json, sys
        import vrld, vrld.cli, vrld.diagnostics
        from vrld.cli import build_objective, main
        from vrld.config import parse_config
        obj = build_objective(parse_config("{config}"))
        before = set(sys.modules)
        {call}
        new = sorted(m for m in set(sys.modules) - before if m.split(".")[0] in ("numpy", "scipy"))
        print(json.dumps({{"rc": rc, "new": new}}))
    """, tmp_path)
    assert got == {"rc": 0, "new": []}


def test_public_names_resolve_and_the_benchmark_calls_still_run():
    """Every exported name exists, and the calls that the benchmark's
    reference checks make into vrld still take the arguments it passes, so
    a later deletion cannot silently turn a reference check off."""
    import vrld
    from vrld import config, diagnostics, potentials, samplers, theory

    for module in (vrld, samplers, potentials, theory, diagnostics, config):
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__
    obj = vrld.make_builtin("gaussian_quadratic", {"n": 8, "d": 2, "seed": 1, "zero_mean": True})
    cfg = vrld.SamplerConfig(variant="lmc", eta=0.01, gamma=1.0, K=4, seed=2, store_every=2)
    trace = vrld.run_chain(obj, cfg, np.zeros(2), replicate=1)
    assert trace.steps.tolist() == [0, 2, 4] and vrld.samplers.run_chain is vrld.run_chain
    res = vrld.run_ensemble(obj, "svrg_ld", 3, 4, eta=0.01, gamma=1.0, B=2, m=2, seed=0, checkpoints=[2, 4])
    assert sorted(res.checkpoints) == [2, 4]
    assert res.grad_evals[4] == samplers.grad_evals_at("svrg_ld", 4, 8, 2, 2) == 2 * (8 + 2 * 2)
