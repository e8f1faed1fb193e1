"""Tests for the configuration format and the command-line surface."""

import math

import numpy as np
import pytest

from vrld.cli import main
from vrld.config import ConfigError, parse_config_text


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


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigFormat:
    def test_round_trip_identity(self):
        cfg = parse_config_text(BASE_CFG.format(out="runs"))
        again = parse_config_text(cfg.to_text())
        assert cfg == again
        assert parse_config_text(again.to_text()) == again

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

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "[potential]\nname = nope\n[sampler]\nvariant = lmc\n")
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2

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

    def test_anneal_with_eta_rejected(self, tmp_path, capsys):
        text = ANNEAL_CFG.format(out=tmp_path / "r").replace("variant = sarah_ld",
                                                             "variant = sarah_ld\neta = 0.01")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        assert "supplies the step size" in capsys.readouterr().err

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


class TestCompareCommand:
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
