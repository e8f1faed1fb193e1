"""Tests for the configuration format and the command-line surface."""

import math
import string
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vrld import theory
from vrld.cli import _metric_series, build_objective, main, resolve_sampler
from vrld.config import _OPTIONAL_SECTIONS, _POTENTIAL_KEYS, _REQUIRED, _SCHEMA, ConfigError, parse_config_text
from vrld.potentials import make_builtin
from vrld.samplers import SamplerConfig, grad_evals_at, run_chain


BASE_CFG = """
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
steps = 120

[theory]
alpha = 1.0
H0 = 8.0

[run]
replicates = 5
seed = 99
thin = 20
out = {out}
"""


# the replicates of this double well run diverge at four different steps
UNEVEN_CFG = """
[potential]
name = double_well
a = 1.0
n_copies = 8

[sampler]
variant = sgld
eta = 0.45
batch = 2
steps = 400

[run]
replicates = 6
seed = 3
x0 = 2.5
out = {out}
"""


# the double well's L = 11 is a grid estimate over its box
GRID_L_CFG = """
[potential]
name = double_well
a = 1.0
n_copies = 16

[sampler]
variant = svrg_ld
eta = 1e-5
batch = 4
epoch = 4
steps = 40

[theory]
alpha = 0.5
H0 = 8.0

[run]
replicates = 2
seed = 5
out = {out}
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


_WORD = string.ascii_letters + string.digits + "_.-/"
_VALUES = {
    "int": st.integers(-2**40, 2**40),
    "float": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "str": st.text(_WORD, min_size=1, max_size=8),
    "floats": st.lists(st.floats(allow_nan=False), max_size=4).map(tuple),
    "strs": st.lists(st.text(_WORD, min_size=1, max_size=6), min_size=1, max_size=3).map(tuple),
}


@st.composite
def config_sections(draw):
    """Every section a config may hold: the required ones always, each
    optional one or not, with its required keys and any of its other keys."""
    name = draw(st.sampled_from(sorted(_POTENTIAL_KEYS)))
    sections = {}
    for section, schema in _SCHEMA.items():
        if section in _OPTIONAL_SECTIONS and not draw(st.booleans()):
            continue
        keys = [key for key, (_, default) in schema.items()
                if (section != "potential" or key in _POTENTIAL_KEYS[name])
                and (default is _REQUIRED or draw(st.booleans()))]
        sections[section] = {key: draw(_VALUES[schema[key][0]]) for key in keys}
    sections["potential"]["name"] = name
    return sections


def render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(v) if isinstance(v, float) else v for v in value)
    return repr(value) if isinstance(value, float) else str(value)


class TestConfigFormat:
    def test_round_trip_identity(self):
        cfg = parse_config_text(BASE_CFG.format(out="runs"))
        again = parse_config_text(cfg.to_text())
        assert cfg == again
        assert parse_config_text(again.to_text()) == again

    @given(config_sections())
    def test_round_trip_for_any_config(self, sections):
        text = "\n".join(f"[{section}]\n" + "".join(f"{key} = {render(v)}\n" for key, v in items.items())
                         for section, items in sections.items())
        cfg = parse_config_text(text)
        for section, items in sections.items():
            assert {key: getattr(cfg, section)[key] for key in items} == items
            assert all(cfg.is_set(section, key) for key in items)
        assert parse_config_text(cfg.to_text()) == cfg

    def test_set_keys_are_told_from_defaults(self):
        """A key left out holds its default but is not set; writing the
        default in sets it.  to_text keeps that apart."""
        unset = parse_config_text(ANNEAL_CFG.format(out="runs"))
        set_ = parse_config_text(ANNEAL_CFG.format(out="runs").replace("batch = 4", "gamma = 1.0\nbatch = 4"))
        assert unset.sampler == set_.sampler and unset.sampler["gamma"] == 1.0
        assert not unset.is_set("sampler", "gamma") and set_.is_set("sampler", "gamma")
        for cfg in (unset, set_):
            assert parse_config_text(cfg.to_text()) == cfg
        assert unset != set_

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError, match="unknown key 'stepsize'"):
            parse_config_text("[sampler]\nvariant = lmc\nstepsize = 0.1\n")

    def test_unknown_section_is_error(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[sampelr]\nvariant = lmc\n")

    def test_duplicate_key_is_error(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("[sampler]\nvariant = lmc\nvariant = sgld\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'name'"):
            parse_config_text("[potential]\nn = 4\nd = 1\n[sampler]\nvariant = lmc\n")

    @pytest.mark.parametrize("section,line", [("run", "checkpoint_every = 5"), ("compare", "groups = 4")])
    def test_unused_keys_are_unknown(self, section, line):
        text = BASE_CFG.format(out="runs") + "\n[compare]\nvariants = lmc, sgld\nthreshold = 1.0\n"
        text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        with pytest.raises(ConfigError, match=f"unknown key '{line.split()[0]}'"):
            parse_config_text(text)

    def test_inapplicable_potential_key(self):
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config_text(
                "[potential]\nname = double_well\nspread = 2.0\n[sampler]\nvariant = lmc\n"
            )

    def test_type_errors_reported(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config_text("[potential]\nname = double_well\n[sampler]\nvariant = lmc\nsteps = many\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text(
            "# preamble\n[potential]\nname = double_well  # quartic\n\n[sampler]\nvariant = lmc\n"
        )
        assert cfg.potential["name"] == "double_well"


class TestTheoryCommand:
    def test_xi_query(self, capsys):
        assert main(["theory", "xi", "n=16", "B=4"]) == 0
        out = capsys.readouterr().out
        assert "xi = 0.2" in out
        assert "formula:" in out

    def test_step_cap_with_unicode_aliases(self, capsys):
        assert main(["theory", "step_cap", "variant=svrg", "α=1", "L=1", "m=4", "γ=1"]) == 0
        out = capsys.readouterr().out
        assert repr(1 / (64 * math.sqrt(6))) in out

    def test_step_cap_bare_variant_token(self, capsys):
        assert main(["theory", "step_cap", "svrg", "α=1", "L=1", "m=4", "γ=1"]) == 0
        assert repr(1 / (64 * math.sqrt(6))) in capsys.readouterr().out

    def test_gamma_opt_query(self, capsys):
        assert main(["theory", "gamma_opt", "eps=0.5", "d=1", "L=1", "M=1", "b=0.25"]) == 0
        assert "gamma = 16.0" in capsys.readouterr().out

    def test_unknown_query(self, capsys):
        assert main(["theory", "nonsense"]) == 2

    def test_missing_parameter(self, capsys):
        assert main(["theory", "xi", "n=16"]) == 2

    def test_hypothesis_violation_exit(self, capsys):
        assert main(["theory", "lsi_dissipative", "gamma=0.5", "L=1", "M=1", "b=1",
                     "d=1", "A_star=0", "B_star=0", "C_star=1"]) == 2
        assert "hypothesis" in capsys.readouterr().err

    def test_listing(self, capsys):
        assert main(["theory"]) == 0
        assert "gamma_opt" in capsys.readouterr().out


class TestValidateConfig:
    def test_ok(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path / "r"))
        assert main(["validate-config", "--config", str(cfg)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_batch_below_epoch_rejected_for_anchored(self, tmp_path, capsys):
        text = BASE_CFG.format(out=tmp_path / "r").replace("batch = 4", "batch = 2")
        cfg = write_cfg(tmp_path, text)
        assert main(["validate-config", "--config", str(cfg)]) == 2
        assert "B >= m" in capsys.readouterr().err

    def test_step_cap_violation_named(self, tmp_path, capsys):
        text = BASE_CFG.format(out=tmp_path / "r").replace("eta = 0.005", "eta = 0.05")
        cfg = write_cfg(tmp_path, text)
        assert main(["validate-config", "--config", str(cfg)]) == 2
        assert "step cap" in capsys.readouterr().err

    def test_lsi_alpha_is_checked_without_auto_mode(self, tmp_path, capsys):
        """A dissipative alpha is resolved and checked in every mode: here it is
        5.36e-12, so the step cap is 8.55e-15 and eta = 0.005 breaks it."""
        text = BASE_CFG.format(out=tmp_path / "r").replace("gamma = 1.0", "gamma = 4.0")
        text = text.replace("steps = 120", "steps = 40").replace(
            "alpha = 1.0", "alpha_mode = dissipative\nA_star = 0.0\nB_star = 0.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["validate-config", "--config", str(cfg)]) == 2
        assert "step cap" in capsys.readouterr().err
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("variant", ["lmc", "sgld"])
    def test_epoch_resolves_to_one_without_epochs(self, tmp_path, capsys, variant):
        """[sampler] epoch is shared with compare, so it stays legal, but a
        variant without epochs resolves it to m = 1 and says so."""
        out = tmp_path / "r"
        text = BASE_CFG.format(out=out).replace("variant = svrg_ld", f"variant = {variant}")
        cfg = write_cfg(tmp_path, text)
        assert main(["validate-config", "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out
        assert " m=1 " in printed and "epoch = 4 does not apply" in printed
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        header = (out / "summary.csv").read_text().splitlines()
        assert "# resolved.m = 1" in header
        assert any(l.startswith("# note:") and "epoch = 4 does not apply" in l for l in header)

    def test_partial_epoch_rejected(self, tmp_path, capsys):
        text = BASE_CFG.format(out=tmp_path / "r").replace("steps = 120", "steps = 122")
        cfg = write_cfg(tmp_path, text)
        assert main(["validate-config", "--config", str(cfg)]) == 2
        assert "divide" in capsys.readouterr().err


class TestRunCommand:
    def test_byte_identical_rerun(self, tmp_path):
        """Fixed seed makes the emitted CSVs deterministic, byte for byte."""
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_cfg(tmp_path, BASE_CFG.format(out=out1), "a.cfg")
        cfg2 = write_cfg(tmp_path, BASE_CFG.format(out=out1), "b.cfg")
        assert main(["run", "--config", str(cfg1), "--quiet"]) == 0
        first = (out1 / "summary.csv").read_bytes()
        reps = sorted(p.name for p in out1.glob("replicate_*.csv"))
        blobs = [(out1 / r).read_bytes() for r in reps]
        assert main(["run", "--config", str(cfg2), "--out", str(out2), "--quiet"]) == 0

        def body(raw: bytes) -> bytes:
            # provenance headers legitimately differ in the output path
            return b"\n".join(l for l in raw.splitlines() if not l.startswith(b"# run.out"))

        assert body((out2 / "summary.csv").read_bytes()) == body(first)
        for r, blob in zip(reps, blobs):
            assert body((out2 / r).read_bytes()) == body(blob)

    def test_header_embeds_resolved_config(self, tmp_path):
        out = tmp_path / "r"
        cfg = write_cfg(tmp_path, BASE_CFG.format(out=out))
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        header = (out / "summary.csv").read_text()
        for needle in ("resolved.eta = 0.005", "resolved.B = 4", "resolved.K = 120",
                       "potential.name = gaussian_quadratic"):
            assert f"# {needle}" in header

    def test_bound_overlay_columns_present(self, tmp_path):
        out = tmp_path / "r"
        cfg = write_cfg(tmp_path, BASE_CFG.format(out=out))
        main(["run", "--config", str(cfg), "--quiet"])
        head = [l for l in (out / "summary.csv").read_text().splitlines() if l.startswith("step")][0]
        assert "bound_kl_total" in head and "kl_surrogate" in head

    def test_bound_overlay_equals_kl_bound_at_every_step(self, tmp_path):
        """The overlay checks the hypotheses once, yet prints the very strings
        a kl_bound call at each stored step gives."""
        out = tmp_path / "r"
        cfg = write_cfg(tmp_path, BASE_CFG.format(out=out).replace("thin = 20", "thin = 1"))
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        rows = [l.split(",") for l in (out / "summary.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        col = {name: [row[j] for row in rows[1:]] for j, name in enumerate(rows[0])}
        bounds = [theory.kl_bound("svrg_ld", 8.0, k, 0.005, 1.0, 1.0, 2, 1.0, 16, 4, 4) for k in range(121)]
        for part in ("total", "decay", "bias"):
            assert col[f"bound_kl_{part}"] == [repr(getattr(b, part)) for b in bounds]

    def test_grid_estimated_L_is_a_note_and_drops_the_overlay(self, tmp_path, capsys):
        """The double well's L is a box estimate: its step cap is 2.6e-5 there, and
        eta = 1e-5 under it proves nothing, so no bound is written."""
        out = tmp_path / "r"
        cfg = write_cfg(tmp_path, GRID_L_CFG.format(out=out))
        assert main(["run", "--config", str(cfg)]) == 0
        assert "note: the step cap and alpha <= gamma*L are not checked" in capsys.readouterr().out
        lines = (out / "summary.csv").read_text().splitlines()
        assert any(l.startswith("# note: the step cap") for l in lines)
        assert not any("bound_kl" in l for l in lines)

    def test_small_L_note_is_written_printed_and_drops_the_overlay(self, tmp_path, capsys):
        out = tmp_path / "r"
        text = BASE_CFG.format(out=out).replace("zero_mean = true", "zero_mean = true\nscales = " + ", ".join(["0.5"] * 16))
        text = text.replace("alpha = 1.0", "alpha = 0.5").replace("eta = 0.005", "eta = 0.001")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", str(cfg)]) == 0
        assert "note: L=0.5 < 1" in capsys.readouterr().out
        lines = (out / "summary.csv").read_text().splitlines()
        assert any(l.startswith("# note: L=0.5 < 1") for l in lines)
        assert not any("bound_kl" in l for l in lines)

    def test_auto_mode_picks_sqrt_n(self, tmp_path):
        """Auto mode with n = 16 resolves B = m = 4."""
        text = BASE_CFG.format(out=tmp_path / "r")
        text = text.replace("eta = 0.005", "auto = true\neps = 0.5").replace("steps = 120", "")
        cfg = write_cfg(tmp_path, text)
        assert main(["validate-config", "--config", str(cfg)]) == 0

    def test_auto_mode_resolution_values(self, tmp_path, capsys):
        text = BASE_CFG.format(out=tmp_path / "r")
        text = text.replace("eta = 0.005", "auto = true\neps = 0.5").replace("steps = 120", "")
        cfg = write_cfg(tmp_path, text)
        main(["validate-config", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert "B=m=4" in out

    def test_divergence_exit_code(self, tmp_path, capsys):
        text = BASE_CFG.format(out=tmp_path / "r")
        text = text.replace("eta = 0.005", "eta = 200000000.0")
        text = text.replace("[theory]\nalpha = 1.0\nH0 = 8.0\n", "")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--quiet"]) == 3

    def test_burn_in_footer_reads_none_when_every_replicate_stops_before_it(self, tmp_path):
        """Every replicate diverges within a few steps, long before burn_in = 60:
        no post-burn-in value exists, and the footer says so without a warning."""
        out = tmp_path / "r"
        text = BASE_CFG.format(out=out).replace("eta = 0.005", "eta = 200000000.0")
        text = text.replace("[theory]\nalpha = 1.0\nH0 = 8.0\n", "").replace("thin = 20", "burn_in = 60")
        cfg = write_cfg(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--quiet"]) == 3
        footer = [l for l in (out / "summary.csv").read_text().splitlines() if l.startswith("# post_burn_in")]
        assert footer == ["# post_burn_in = none (burn_in=60 exceeds stored steps)"]

    def test_uneven_divergence_writes_the_summary(self, tmp_path):
        """Replicates that diverge at different steps (here 7, 8, 30 and 33)
        still give a summary on every step the longest one stored, blank where
        a replicate has no value, a footer over the values each one has, and
        replicate CSVs that are their own chains."""
        out = tmp_path / "r"
        cfg = write_cfg(tmp_path, UNEVEN_CFG.format(out=out))
        assert main(["run", "--config", str(cfg), "--quiet"]) == 3
        obj = make_builtin("double_well", {"a": 1.0, "n_copies": 8})
        scfg = SamplerConfig(variant="sgld", eta=0.45, B=2, K=400, seed=3)
        traces = [run_chain(obj, scfg, np.array([2.5]), replicate=r) for r in range(6)]
        assert sorted({t.diverged_step for t in traces}) == [7, 8, 30, 33]
        for r, t in enumerate(traces):
            rows = [l.split(",") for l in (out / f"replicate_{r:03d}.csv").read_text().splitlines()
                    if l and not l.startswith("#")]
            assert [int(row[0]) for row in rows[1:]] == t.steps.tolist()
            assert [float(row[rows[0].index("x0")]) for row in rows[1:]] == t.iterates[:, 0].tolist()
        lines = (out / "summary.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if l and not l.startswith("#")]
        col = {name: [row[j] for row in rows[1:]] for j, name in enumerate(rows[0])}
        assert col["step"] == [str(k) for k in max(traces, key=lambda t: t.steps.size).steps.tolist()]
        reached = sum(len(t.steps) for t in traces)
        assert f"# post_burn_in_steps = {reached} in all (burn_in=0)" in lines
        with np.errstate(over="ignore"):  # the last iterates before a divergence are huge
            mean_f = np.concatenate([obj.value(t.iterates) for t in traces]).mean()
        assert f"# post_burn_in_mean_f = {float(mean_f)!r}" in lines
        shortest = min(len(t.steps) for t in traces)
        assert all(c != "" for c in col["mean_f"][:shortest])
        assert all(c == "" for name in ("mean_f", "se_f", "suboptimality") for c in col[name][shortest:])
        assert not any("nan" in row for row in rows)

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "[potential]\nname = nope\n[sampler]\nvariant = lmc\n")
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2

    def test_objective_value_runs_once_per_replicate(self, tmp_path, monkeypatch):
        """The replicate CSVs, the summary and the burn-in footer share one F
        evaluation per replicate trace."""
        from vrld.potentials import FiniteSumObjective

        calls = []
        value = FiniteSumObjective.value
        monkeypatch.setattr(FiniteSumObjective, "value", lambda self, x: calls.append(1) or value(self, x))
        cfg = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path / "r"))
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        assert len(calls) == 5

    def test_epoch_column_agrees_between_files(self, tmp_path):
        """The replicate and summary CSVs take the epoch column from one source."""
        out = tmp_path / "r"
        cfg = write_cfg(tmp_path, BASE_CFG.format(out=out).replace("variant = svrg_ld", "variant = sgld"))
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0

        def step_epoch(name):
            rows = [l.split(",")[:2] for l in (out / name).read_text().splitlines()
                    if l and not l.startswith("#")]
            assert rows[0] == ["step", "epoch"]
            return rows[1:]

        assert step_epoch("replicate_000.csv") == step_epoch("summary.csv")


ANNEAL_CFG = """
[potential]
name = double_well
a = 1.0
n_copies = 16

[sampler]
variant = sarah_ld
batch = 4
epoch = 4
steps = 40

[anneal]
eta_bar = 0.01
gamma_bar = 1.0
sigma = 3.0
mu = 13.0
g = 2.718281828459045

[run]
replicates = 2
seed = 5
burn_in = 20
out = {out}
"""


class TestAnnealedRun:
    def test_annealed_run_and_burn_in_footer(self, tmp_path):
        out = tmp_path / "r"
        cfg = write_cfg(tmp_path, ANNEAL_CFG.format(out=out))
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        text = (out / "summary.csv").read_text()
        assert "# anneal.mu = 13.0" in text
        assert "# post_burn_in_suboptimality = " in text

    def test_schedule_outside_the_hypotheses_is_refused(self, tmp_path, capsys):
        """eta_0^2 L^2 = 14.43 > 1/4 at epoch 0 of the schedule."""
        text = BASE_CFG.format(out=tmp_path / "r").replace("eta = 0.005\n", "").replace("gamma = 1.0\n", "")
        text = text.replace("steps = 120", "steps = 400")
        text += "\n[anneal]\neta_bar = 5.0\ngamma_bar = 1.0\nsigma = 3.0\nmu = 4.0\n"
        cfg = write_cfg(tmp_path, text)
        for command in ("validate-config", "run"):
            assert main([command, "--config", str(cfg), "--quiet"]) == 2
            assert "eta_s^2 L^2 <= 1/4 at epoch 0" in capsys.readouterr().err

    def test_schedule_is_not_checked_against_a_grid_estimated_L(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["run", "--config", str(write_cfg(tmp_path, ANNEAL_CFG.format(out=out)))]) == 0
        assert "schedule is not checked" in capsys.readouterr().out
        assert any("schedule is not checked" in l for l in (out / "summary.csv").read_text().splitlines())

    def test_anneal_with_eta_rejected(self, tmp_path, capsys):
        text = ANNEAL_CFG.format(out=tmp_path / "r").replace("variant = sarah_ld",
                                                             "variant = sarah_ld\neta = 0.01")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        assert "supplies the step size" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["7.0", "1.0"])
    def test_anneal_with_gamma_rejected(self, tmp_path, capsys, gamma):
        """Set to any value, the default included, [sampler] gamma is refused."""
        text = ANNEAL_CFG.format(out=tmp_path / "r").replace("batch = 4", f"gamma = {gamma}\nbatch = 4")
        cfg = write_cfg(tmp_path, text)
        for command in ("validate-config", "run"):
            assert main([command, "--config", str(cfg), "--quiet"]) == 2
            assert "supplies the inverse temperature; drop [sampler] gamma" in capsys.readouterr().err

    def test_anneal_invariants_enforced(self, tmp_path, capsys):
        text = ANNEAL_CFG.format(out=tmp_path / "r").replace("mu = 13.0", "mu = 2.5")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        assert "mu" in capsys.readouterr().err

    def test_anneal_matches_library_runner(self, tmp_path):
        import vrld

        out = tmp_path / "r"
        cfg = write_cfg(tmp_path, ANNEAL_CFG.format(out=out))
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        obj = vrld.make_builtin("double_well", {"a": 1.0, "n_copies": 16})
        sched = vrld.AnnealSchedule(eta_bar=0.01, gamma_bar=1.0, sigma=3.0, mu=13.0,
                                    g=2.718281828459045)
        trace = vrld.run_annealed(obj, "sarah_ld", sched, B=4, m=4, K=40, seed=5,
                                  x0=np.zeros(1), replicate=0)
        rows = [l.split(",") for l in (out / "replicate_000.csv").read_text().splitlines()
                if l and not l.startswith(("#", "step"))]
        np.testing.assert_allclose([float(r[5]) for r in rows], trace.iterates[:, 0], rtol=0)


LOGISTIC_COMPARE_CFG = """
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


class TestCompareCommand:
    def test_every_replicate_counts_exactly_and_is_its_own_chain(self, tmp_path, monkeypatch):
        """compare on logistic_l2, whose full gradient is the row kernel over
        all n rows: at every stored step each replicate of each variant has
        counted exactly its grad_evals_at, the objective's counter is their
        sum, and replicate r steps as its single chain does, bitwise."""
        import vrld.cli as cli

        rng = np.random.default_rng(4)
        data = tmp_path / "data.txt"
        data.write_text("".join(f"{a!r} {b!r} {float(rng.random() < 0.5)!r}\n"
                                for a, b in rng.standard_normal((24, 2)).tolist()))
        cfg = write_cfg(tmp_path, LOGISTIC_COMPARE_CFG.format(data=data, out=tmp_path / "r"))
        objs, runs = [], []
        build, run_replicates = cli.build_objective, cli.samplers.run_replicates
        monkeypatch.setattr(cli, "build_objective", lambda c: objs.append(build(c)) or objs[-1])
        monkeypatch.setattr(cli.samplers, "run_replicates",
                            lambda o, scfg, *a: runs.append((scfg, run_replicates(o, scfg, *a))) or runs[-1][1])
        assert main(["compare", "--config", str(cfg), "--quiet"]) == 0
        assert [scfg.variant for scfg, _ in runs] == ["lmc", "sgld", "svrg_ld", "sarah_ld"]
        ref = make_builtin("logistic_l2", {"data_file": data, "lam": 0.5})
        for scfg, traces in runs:
            assert len(traces) == 3
            for r, t in enumerate(traces):
                assert t.grad_evals.tolist() == [grad_evals_at(scfg.variant, k, 24, 3, scfg.m)
                                                 for k in t.steps.tolist()]
                single = run_chain(ref, scfg, np.array([2.0, 2.0]), replicate=r)
                assert np.array_equal(t.iterates, single.iterates) and np.array_equal(t.final_x, single.final_x)
        assert objs[0].grad_evals == sum(3 * grad_evals_at(scfg.variant, 40, 24, 3, scfg.m) for scfg, _ in runs)

    def test_kl_series_has_no_value_where_iterates_are_huge(self):
        """compare's full-ensemble kl_surrogate series is nan, so never below a
        threshold, exactly at the checkpoints with |x| >= 1e100; a bootstrap
        resample can only lose values there."""
        cfg = parse_config_text(HUGE_CFG.format(out="r"))
        obj = build_objective(cfg)
        scfg = resolve_sampler(cfg, obj)[0]
        traces = [run_chain(obj, scfg, np.array([1.0]), replicate=r) for r in range(4)]
        _, vals = _metric_series("kl_surrogate", obj, scfg.gamma, traces)
        huge = np.abs(np.stack([t.iterates for t in traces], axis=1)).max(axis=(1, 2)) >= 1e100
        assert huge.any() and not huge.all()
        assert np.array_equal(np.isnan(vals[0]), huge)
        assert not np.isnan(vals[1:, ~huge]).any()


    def test_identical_variants_identical_columns(self, tmp_path):
        text = BASE_CFG.format(out=tmp_path / "r") + (
            "\n[compare]\nvariants = svrg_ld, svrg_ld\nmetric = kl_surrogate\nthreshold = 3.0\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["compare", "--config", str(cfg), "--quiet"]) == 0
        rows = [l for l in (tmp_path / "r" / "compare.csv").read_text().splitlines()
                if l.startswith("svrg_ld")]
        assert len(rows) == 2 and rows[0] == rows[1]

    def test_unreachable_threshold_sentinel(self, tmp_path):
        text = BASE_CFG.format(out=tmp_path / "r") + (
            "\n[compare]\nvariants = lmc, svrg_ld\nmetric = kl_surrogate\nthreshold = 1e-9\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["compare", "--config", str(cfg), "--quiet"]) == 0
        content = (tmp_path / "r" / "compare.csv").read_text()
        assert "not_reached" in content


# lmc at eta = 2.5 on a unit quadratic: the iterates grow by 1.5x per step,
# past 1e100 long before they overflow
HUGE_CFG = """
[potential]
name = gaussian_quadratic
n = 8
d = 1
seed = 0

[sampler]
variant = lmc
eta = 2.5
gamma = 1.0
steps = 900

[run]
replicates = 4
seed = 1
x0 = 1.0
out = {out}

[sweep]
axis = eta
values = 2.5
"""


class TestSweepCommand:
    def test_single_point_sweep_matches_run(self, tmp_path):
        """A one-value sweep reproduces the plain run's objective column."""
        out = tmp_path / "r"
        text = BASE_CFG.format(out=out) + "\n[sweep]\naxis = eta\nvalues = 0.005\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        rep0 = [l.split(",") for l in (out / "replicate_000.csv").read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("step")]
        sweep = [l.split(",") for l in (out / "sweep.csv").read_text().splitlines()
                 if l.startswith("eta,0.005,0,")]
        run_f = [r[3] for r in rep0]
        sweep_f = [r[6] for r in sweep]
        assert run_f == sweep_f

    @pytest.mark.parametrize("variant", ["lmc", "sgld"])
    def test_epoch_axis_needs_an_epoch_variant(self, tmp_path, capsys, variant):
        text = BASE_CFG.format(out=tmp_path / "r").replace("variant = svrg_ld", f"variant = {variant}")
        cfg = write_cfg(tmp_path, text + "\n[sweep]\naxis = m\nvalues = 2, 4\n")
        assert main(["sweep", "--config", str(cfg), "--quiet"]) == 2
        assert "axis m" in capsys.readouterr().err
        assert not (tmp_path / "r" / "sweep.csv").exists()

    def test_full_batch_single_epoch_sweep_reproduces_lmc(self, tmp_path):
        """Sweeping B to n with m = 1 lands on the full-gradient chain."""
        out = tmp_path / "r"
        text = BASE_CFG.format(out=out).replace("batch = 4", "batch = 16").replace("epoch = 4", "epoch = 1")
        text_s = text + "\n[sweep]\naxis = B\nvalues = 16\n"
        cfg_s = write_cfg(tmp_path, text_s, "s.cfg")
        text_l = text.replace("variant = svrg_ld", "variant = lmc")
        cfg_l = write_cfg(tmp_path, text_l, "l.cfg")
        out_l = tmp_path / "lmc"
        assert main(["sweep", "--config", str(cfg_s), "--quiet"]) == 0
        assert main(["run", "--config", str(cfg_l), "--out", str(out_l), "--quiet"]) == 0
        sweep_f = [l.split(",")[6] for l in (out / "sweep.csv").read_text().splitlines()
                   if l.startswith("b,16.0,0,")]
        lmc_f = [l.split(",")[3] for l in (out_l / "replicate_000.csv").read_text().splitlines()
                 if l and not l.startswith("#") and not l.startswith("step")]
        assert sweep_f == lmc_f

    def test_huge_iterates_give_blank_cells_like_run(self, tmp_path):
        """A sweep whose ensemble grows past 1e100 without diverging writes no
        value (a blank cell) there, by the rule summary.csv follows, and no
        nan or warning."""
        out = tmp_path / "r"
        cfg = write_cfg(tmp_path, HUGE_CFG.format(out=out))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["sweep", "--config", str(cfg), "--quiet"]) == 0
            assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        sweep_kl = [l.split(",")[7] for l in (out / "sweep.csv").read_text().splitlines()
                    if l.startswith("eta,2.5,all,")]
        header, *rows = [l.split(",") for l in (out / "summary.csv").read_text().splitlines()
                         if l and not l.startswith("#")]
        run_kl = [r[header.index("kl_surrogate")] for r in rows]
        assert "nan" not in sweep_kl and "" in sweep_kl and sweep_kl[0] != ""
        assert [c == "" for c in sweep_kl] == [c == "" for c in run_kl]
