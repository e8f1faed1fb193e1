"""Tests for the configuration format and the command-line surface."""

import inspect
import math
import re
import string
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vrld import theory
from vrld.cli import _metric_series, execute, main, resolve
from vrld.config import _OPTIONAL_SECTIONS, _POTENTIALS, _REQUIRED, _SCHEMA, ConfigError, parse_config_text
from vrld.potentials import _BUILTINS, make_builtin
from vrld.samplers import AnnealSchedule, SamplerConfig, grad_evals_at, run_chain


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


# the double well's L = 11 holds only on its default box |x| <= 2
BOX_L_CFG = """
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


# a [potential] section for each built-in, with every key it takes that the
# header renders as one value; logistic_l2 reads a data file
POTENTIAL_SECTIONS = {
    "gaussian_quadratic": "n = 8\nd = 2\nseed = 3\nspread = 0.5\nzero_mean = true\n",
    "double_well": "a = 1.0\nd = 2\nn_copies = 8\nbox = 3.0\n",
    "gaussian_mixture": "sigma = 0.8\nn_copies = 8\n",
    "logistic_l2": "data = {data}\nlam = 0.5\n",
}

# header cases: id -> (built-in, its [potential] keys, more [run] keys); the
# last two set tuple-valued keys
HEADER_CASES = {
    **{name: (name, keys, "") for name, keys in POTENTIAL_SECTIONS.items()},
    "gaussian_mixture-mu-x0": ("gaussian_mixture", "mu = 1.0, -0.5\nn_copies = 8\n", "x0 = 0.5, 0.5\n"),
    "gaussian_quadratic-scales": ("gaussian_quadratic", "n = 4\nd = 2\nscales = 0.5, 1.0, 1.5, 2.0\n", ""),
}

SGLD_RUN = """
[sampler]
variant = sgld
eta = 0.01
batch = 2
steps = 8

[run]
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
    optional one or not, with its required keys and any of its other keys;
    [potential] names a built-in and takes that built-in's keys."""
    name = draw(st.sampled_from(sorted(_POTENTIALS)))
    sections = {}
    for section, schema in _SCHEMA.items():
        if section in _OPTIONAL_SECTIONS and not draw(st.booleans()):
            continue
        if section == "potential":
            schema = _POTENTIALS[name]
        keys = [key for key, (_, default) in schema.items() if default is _REQUIRED or draw(st.booleans())]
        sections[section] = {key: draw(_VALUES[schema[key][0]]) for key in keys}
    sections["potential"] = {"name": name, **sections["potential"]}
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

    @pytest.mark.parametrize(("section", "error"), [
        ("name = gaussian_quadratic\nd = 2\n", "[potential] missing required key 'n'"),
        ("name = gaussian_quadratic\nn = 4\n", "[potential] missing required key 'd'"),
        ("name = logistic_l2\nlam = 0.5\n", "[potential] missing required key 'data'"),
        ("name = double_well\nspread = 2.0\nfoo = 1\n",
         "[potential] key 'spread' does not apply to 'double_well'\n  [potential] unknown key 'foo'"),
        ("name = nope\nn = 4\nspread = 2.0\nfoo = 1\n", "[potential] unknown potential name 'nope'"),
    ], ids=["quadratic-n", "quadratic-d", "logistic-data", "inapplicable-and-unknown", "unknown-name"])
    def test_potential_keys_are_checked_against_the_named_builtin(self, section, error):
        """Each built-in's keys are checked where every other key is; an
        unknown name is the one error, whatever keys come with it."""
        with pytest.raises(ConfigError) as info:
            parse_config_text(f"[potential]\n{section}[sampler]\nvariant = lmc\n")
        assert str(info.value) == "invalid configuration:\n  " + error

    def test_each_potential_key_is_a_parameter_of_its_builder(self):
        """The [potential] table and the builders' signatures cannot drift
        apart: each key is a parameter of its builder, data as data_file, and
        a default the table states is the builder's own."""
        assert sorted(_POTENTIALS) == sorted(_BUILTINS)
        for name, keys in _POTENTIALS.items():
            taken = inspect.signature(_BUILTINS[name]).parameters
            for key, (_, default) in keys.items():
                param = "data_file" if key == "data" else key
                assert param in taken, (name, key)
                if default is not None and default is not _REQUIRED:
                    assert default == taken[param].default, (name, key)

    @pytest.mark.parametrize("text,message", [
        ("[sampler]\nvariant = lmc\nauto = maybe\n", "[sampler] auto: expected a boolean, got 'maybe'"),
        ("[sampler]\nvariant = lmc\n[sampler]\nvariant = sgld\n", "line 3: duplicate section [sampler]"),
        ("variant = lmc\n[sampler]\n", "line 1: key outside any section: 'variant = lmc'"),
        ("[sampler]\nvariant lmc\n", "line 2: expected key = value, got 'variant lmc'"),
    ], ids=["bad-bool", "duplicate-section", "key-outside-section", "no-equals"])
    def test_a_malformed_line_is_refused(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert message in str(info.value)

    def test_a_missing_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing.cfg"
        assert main(["validate-config", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"[Errno 2] No such file or directory: '{path}'\n"

    def test_type_errors_reported(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config_text("[potential]\nname = double_well\n[sampler]\nvariant = lmc\nsteps = many\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text(
            "# preamble\n[potential]\nname = double_well  # quartic\n\n[sampler]\nvariant = lmc\n"
        )
        assert cfg.potential["name"] == "double_well"


# every theory query at fixed arguments, with its printed (name, value)
# pairs computed by calling the theory function itself
THEORY_QUERIES = [
    ("xi n=16 B=4", lambda: [("xi", theory.minibatch_variance_factor(16, 4))]),
    ("upsilon n=16 B=4 m=4",
     lambda: list(zip(("xi", "lambda", "upsilon"), theory.variance_reduction_factors(16, 4, 4)))),
    ("step_cap svrg alpha=1 L=1 m=4 gamma=1", lambda: [("cap", theory.step_size_cap("svrg", 1.0, 1.0, 4, 1.0))]),
    ("bias sarah eta=0.01 gamma=2 d=2 L=1.5 alpha=0.5 n=16 B=4 m=4",
     lambda: [("bias", theory.bias_term("sarah", 0.01, 2.0, 2, 1.5, 0.5, 16, 4, 4))]),
    ("bias_coarse eta=0.01 gamma=2 d=2 L=1.5 alpha=0.5",
     lambda: [("bias_coarse", theory.bias_term_coarse(0.01, 2.0, 2, 1.5, 0.5))]),
    ("kl_bound sarah H0=8 k=100 eta=0.001 gamma=1 alpha=1 d=2 L=1 n=16 B=4 m=4",
     lambda: [(key, getattr(theory.kl_bound("sarah", 8.0, 100, 0.001, 1.0, 1.0, 2, 1.0, 16, 4, 4), key))
              for key in ("decay", "bias", "total")]),
    ("bias_coarse eta=0.001 gamma=1 d=2 L=1 alpha=1",
     lambda: [("bias_coarse", theory.bias_term_coarse(0.001, 1.0, 2, 1.0, 1.0))]),
    ("eta_for_eps sarah eps=0.1 gamma=1 alpha=1 d=2 L=1 n=16 B=4 m=4",
     lambda: [("eta", theory.eta_for_eps("sarah", 0.1, 1.0, 1.0, 2, 1.0, 16, 4, 4))]),
    ("iters_for_eps eps=0.1 H0=8 gamma=1 alpha=1 eta=0.001",
     lambda: [("k", theory.iterations_for_eps(0.1, 8.0, 1.0, 1.0, 0.001))]),
    ("grad_complexity k=100 B=4 m=4 n=16", lambda: [("count", theory.gradient_complexity(100, 4, 4, 16))]),
    ("talagrand_w2 H=0.5 alpha=2", lambda: [("w2", theory.talagrand_w2_bound(0.5, 2.0))]),
    ("lsi_dissipative gamma=2 L=1 M=1 b=1 d=1 A_star=0.1 B_star=0.1 C_star=1.5",
     lambda: [(key, getattr(theory.lsi_constant_dissipative(2.0, 1.0, 1.0, 1.0, 1, 0.1, 0.1, 1.5), key))
              for key in ("alpha", "log_alpha", "C1", "C2")]),
    ("lsi_weak_morse gamma=1e9 lambda_dagger=0.5 M=1 L=1 d=1 L_prime=0.1 C_F=1",
     lambda: [(key, getattr(theory.lsi_constant_weak_morse(1e9, 0.5, 1.0, 1.0, 1, 0.1, 1.0), key))
              for key in ("alpha", "gamma_floor", "C3", "bracket")]),
    ("gamma_opt eps=0.5 d=1 L=1 M=1 b=0.25",
     lambda: [("gamma", theory.inverse_temperature_for_accuracy(0.5, 1, 1.0, 1.0, 0.25))]),
    ("gibbs_bound gamma=4 d=1 L=1 M=1 b=0.25",
     lambda: [("bound", theory.gibbs_suboptimality_bound(4.0, 1, 1.0, 1.0, 0.25))]),
    ("subopt_decomp w2=0.1 L=1 gamma=4 d=1 M=1 b=0.25",
     lambda: [("bound", theory.suboptimality_decomposition(0.1, 1.0, 4.0, 1, 1.0, 0.25))]),
    ("kl_target alpha=0.5 eps=0.1 L=2", lambda: [("kl", theory.kl_target_for_suboptimality(0.5, 0.1, 2.0))]),
    ("opt_eta alpha=1 L=1 n=16 gamma=2 d=1 eps=0.1",
     lambda: [("eta", theory.optimization_step_size(1.0, 1.0, 16, 2.0, 1, 0.1))]),
    ("chi d=1 L=2 M=1 b=0.25", lambda: [("chi", theory.chi_constant(1, 2.0, 1.0, 0.25))]),
    ("anneal_sigma_floor L=1 g=3 eta_bar=0.1 mu=4 C1=0.5 C2=0.5",
     lambda: [("sigma", theory.anneal_sigma_floor(1.0, 3.0, 0.1, 4.0, 0.5, 0.5))]),
    ("anneal_eta eta_bar=0.1 sigma=3 mu=4 s=2",
     lambda: [("eta_s", AnnealSchedule(eta_bar=0.1, gamma_bar=1.0, sigma=3.0, mu=4.0, g=3.0).eta(2))]),
    ("anneal_gamma gamma_bar=1 g=3 sigma=3 mu=4 s=2",
     lambda: [("gamma_s", AnnealSchedule(eta_bar=0.1, gamma_bar=1.0, sigma=3.0, mu=4.0, g=3.0).gamma(2))]),
]


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
        out = capsys.readouterr().out
        assert "gamma_opt" in out
        assert "  lsi_dissipative gamma=.. L=.. M=.. b=.. d=.. A_star=.. B_star=.. [C_star=..]\n" in out
        assert "  eta_for_eps variant=.. eps=.. gamma=.. alpha=.. d=.. L=.. [n=..] [B=..] [m=..]\n" in out

    def test_lsi_dissipative_defaults_c_star_to_one(self, capsys):
        """C_star is optional: without it the query prints what C_star=1
        prints, caveat included."""
        base = ["theory", "lsi_dissipative", "gamma=2", "L=1", "M=1", "b=1", "d=1", "A_star=0.1", "B_star=0.1"]
        assert main(base) == 0
        default = capsys.readouterr()
        assert main([*base, "C_star=1"]) == 0
        assert default.out == capsys.readouterr().out
        assert default.err == ""
        assert "CAVEAT: C_star defaults to 1" in default.out

    @pytest.mark.parametrize("tokens,expected", THEORY_QUERIES,
                             ids=[tokens.split()[0] for tokens, _ in THEORY_QUERIES])
    def test_every_query_prints_its_function_values(self, capsys, tokens, expected):
        """Each query prints `name = repr(value)` for the values its theory
        function returns, in order, then its formula line."""
        assert main(["theory", *tokens.split()]) == 0
        *values, formula = capsys.readouterr().out.splitlines()
        assert values == [f"{name} = {value!r}" for name, value in expected()]
        assert formula.startswith("formula: ") and len(formula) > len("formula: ")

    @pytest.mark.parametrize("tokens", [
        "kl_bound sarah H0=1 k=10 eta=1e-4 gamma=1 alpha=1 d=1 L=1 n=100 B=1 m=10",
        "bias sarah eta=1e-4 gamma=1 alpha=1 d=1 L=1 n=100 B=1 m=10",
    ], ids=["kl_bound", "bias"])
    def test_no_query_prints_a_coarse_bias_below_the_tight_bias(self, capsys, tokens):
        """The coarse bias caps the anchored variant's factor at 7, which its
        B >= m gives; sarah_ld's factor 2 + Xi + 2 m Xi has no such cap, and
        at B = 1, m = 10 it is three times larger.  No query may print a
        coarse bias below the bias it prints."""
        assert main(["theory", *tokens.split()]) == 0
        printed = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()[:-1])
        if "bias_coarse" in printed:
            assert float(printed["bias_coarse"]) >= float(printed["bias"])

    @pytest.mark.parametrize("tokens,message", [
        ("grad_complexity k=100 B=4 m=0 n=16", "need m >= 1, got m=0"),
        ("iters_for_eps eps=0.1 H0=8 gamma=1 alpha=0 eta=0.001", "need alpha, eta > 0"),
        ("eta_for_eps svrg eps=0.1 gamma=1 alpha=1 d=0 L=1", "need gamma, alpha, L > 0 and d >= 1"),
        ("gibbs_bound gamma=4 d=0 L=1 M=1 b=0.25", "need M > 0 and d >= 1"),
        ("gibbs_bound gamma=4 d=1 L=1 M=0 b=0.25", "need M > 0 and d >= 1"),
        ("lsi_dissipative gamma=2 L=1 M=0 b=1 d=1 A_star=0.1 B_star=0.1", "need positive L, M, b, C_star and d >= 1"),
        ("bias svrg eta=0.01 gamma=2 d=2 L=1.5 alpha=0 n=16 B=4 m=4", "need alpha > 0"),
        ("anneal_eta eta_bar=0.1 sigma=3 mu=0 s=2", "need mu > 0, got 0.0"),
        ("anneal_eta eta_bar=0.1 sigma=3 mu=4 s=-5", "need s + sigma > 0, got s=-5.0, sigma=3.0"),
        ("anneal_gamma gamma_bar=1 g=3 sigma=3 mu=0 s=2", "need mu > 0, got 0.0"),
        ("anneal_gamma gamma_bar=1 g=3 sigma=3 mu=4 s=-5", "need s + sigma > 0, got s=-5.0, sigma=3.0"),
        ("anneal_sigma_floor L=1 g=3 eta_bar=1e-300 mu=3.0000001 C1=0.5 C2=0.5", "out of range"),
    ], ids=["grad_complexity-m0", "iters_for_eps-alpha0", "eta_for_eps-d0", "gibbs_bound-d0", "gibbs_bound-M0",
            "lsi_dissipative-M0", "bias-alpha0", "anneal_eta-mu0", "anneal_eta-negative-base", "anneal_gamma-mu0",
            "anneal_gamma-negative-log", "anneal_sigma_floor-overflow"])
    def test_input_outside_a_formula_domain_exits_2(self, capsys, tokens, message):
        """A zero divisor, a negative base or an overflow is refused with one
        line on stderr: no traceback, and no complex number on stdout."""
        assert main(["theory", *tokens.split()]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("hypothesis violation: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("tokens,message", [
        ("anneal_gamma gamma_bar=1 g=0 sigma=3 mu=4 s=2", "need g >= e, got 0.0"),
        ("anneal_gamma gamma_bar=1 g=0.5 sigma=3 mu=4 s=2", "need g >= e, got 0.5"),
        ("anneal_sigma_floor L=1 g=3 eta_bar=1e-300 mu=3.0000001 C1=0.5 C2=0.5",
         "(8 L g^2 / (C1^2 eta_bar))^(mu/(mu-3)) is out of range at mu = 3.0000001"),
        ("anneal_sigma_floor L=1e-100 g=3 eta_bar=1 mu=3.5 C1=0.5 C2=0.5",
         "(2 / (mu C2 L^2 eta_bar^2))^(mu/(mu-2)) is out of range at mu = 3.5"),
        ("anneal_eta eta_bar=1 sigma=1 mu=2 s=0", "need mu > 3, got 2.0"),
        ("anneal_gamma gamma_bar=1 g=3 sigma=1 mu=2 s=0", "need mu > 3, got 2.0"),
        ("anneal_eta eta_bar=1 sigma=1 mu=4 s=0", "need sigma >= 3, got 1.0"),
        ("anneal_gamma gamma_bar=1 g=3 sigma=2.5 mu=4 s=0", "need sigma >= 3, got 2.5"),
        ("anneal_eta eta_bar=-1 sigma=3 mu=4 s=0", "need eta_bar > 0, got -1.0"),
        ("anneal_gamma gamma_bar=-2 g=3 sigma=3 mu=4 s=0", "need gamma_bar > 0, got -2.0"),
    ], ids=["anneal_gamma-g0", "anneal_gamma-g-below-e", "anneal_sigma_floor-first-term", "anneal_sigma_floor-second-term",
            "anneal_eta-mu-not-above-3", "anneal_gamma-mu-not-above-3", "anneal_eta-sigma-below-3",
            "anneal_gamma-sigma-below-3", "anneal_eta-eta_bar-negative", "anneal_gamma-gamma_bar-negative"])
    def test_schedule_query_refuses_an_input_by_name(self, capsys, tokens, message):
        """A schedule query refuses what every AnnealSchedule refuses (eta_bar
        <= 0, gamma_bar <= 0, mu <= 3, g < e, sigma < 3), and the sigma floor
        names its term that leaves the floats, with mu."""
        assert main(["theory", *tokens.split()]) == 2
        assert capsys.readouterr() == ("", f"hypothesis violation: {message}\n")

    @pytest.mark.parametrize("tokens,message", [
        (["n=abc", "B=4"], "n must be an integer, got 'abc'"),
        (["n=16.5", "B=4"], "n must be an integer, got '16.5'"),
        (["n=16", "B=4", "foo=3"], "xi takes no foo; its parameters are n B"),
        (["n=16", "B=4", "n=8"], "n is given twice"),
    ], ids=["not-a-number", "not-an-integer", "unknown-key", "repeated-key"])
    def test_bad_input_is_refused_naming_the_key(self, capsys, tokens, message):
        assert main(["theory", "xi", *tokens]) == 2
        assert capsys.readouterr().err == message + "\n"


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

    @pytest.mark.parametrize("line, flags, message", [
        ("seed = -1", [], "[run] seed must be >= 0, got -1"),
        ("seed = 99", ["--seed", "-2"], "[run] seed must be >= 0, got -2"),
        ("thin = 0", [], "[run] thin must be >= 1, got 0"),
        ("replicates = 0", [], "[run] replicates must be >= 1, got 0"),
        ("H0 = inf", [], "[theory] H0 must be finite and >= 0, got inf"),
        ("H0 = nan", [], "[theory] H0 must be finite and >= 0, got nan"),
        ("H0 = -3", [], "[theory] H0 must be finite and >= 0, got -3.0"),
        ("alpha = nan", [], "[theory] alpha must be finite, got nan"),
        ("alpha = -1.0", [], "[theory] alpha must be > 0, got -1.0"),
        ("alpha = 0.0", [], "[theory] alpha must be > 0, got 0.0"),
    ], ids=["seed", "seed-flag", "thin", "replicates", "H0-inf", "H0-nan", "H0-negative", "alpha-nan",
            "alpha-negative", "alpha-zero"])
    def test_a_run_key_out_of_range_is_refused_by_name(self, tmp_path, capsys, line, flags, message):
        """A negative seed, from the file or from --seed, and a thin or a
        replicate count below 1 exit 2 naming the [run] key the user wrote,
        from validate-config and from run before any directory is made.  So
        do a [theory] H0 that no KL can be and an alpha that is not finite
        and > 0, which reach the bound formulas as they are."""
        out = tmp_path / "r"
        written = {"seed": "seed = 99", "thin": "thin = 20", "replicates": "replicates = 5",
                   "H0": "H0 = 8.0", "alpha": "alpha = 1.0"}[line.split(" = ")[0]]
        cfg = write_cfg(tmp_path, BASE_CFG.format(out=out).replace(written, line))
        for command in ("validate-config", "run"):
            assert main([command, "--config", str(cfg), *flags]) == 2
            assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, auto", [
        ("eta = nan", False), ("eta = inf", False), ("gamma = nan", False), ("gamma = inf", False),
        ("gamma = nan", True), ("gamma = inf", True), ("eps = nan", True), ("eps = inf", True),
        ("eps = -1.0", True), ("eps = 0.0", True), ("H0 = 0.0", True), ("alpha = -1.0", True),
    ], ids=["eta = nan", "eta = inf", "gamma = nan", "gamma = inf",
            "auto-gamma = nan", "auto-gamma = inf", "auto-eps = nan", "auto-eps = inf",
            "auto-eps = -1.0", "auto-eps = 0.0", "auto-H0 = 0.0", "auto-alpha = -1.0"])
    def test_a_non_finite_step_or_temperature_is_refused(self, tmp_path, capsys, line, auto):
        """lmc checks no step cap, so only the sampler's own check stands
        between a non-finite eta or gamma and a run that diverges at step 1
        or fails in its diagnostics.  Auto mode feeds gamma, its target eps,
        H0 and alpha to the theory formulas, so it refuses a value they
        cannot take by the key's name first."""
        out = tmp_path / "r"
        key, value = line.split(" = ")
        text = BASE_CFG.format(out=out)
        if auto:
            text = text.replace("eta = 0.005", "auto = true\neps = 0.5").replace("steps = 120", "")
            out_of_range = {"eps": "[sampler] eps must be > 0", "H0": "[theory] auto mode needs H0 > 0",
                            "alpha": "[theory] alpha must be > 0"}
            message = (out_of_range[key] if float(value) <= 0 else f"[sampler] {key} must be finite") + f", got {value}\n"
        else:
            text = text.replace("variant = svrg_ld", "variant = lmc")
            message = "[sampler] eta and gamma must be finite, got "
        written = {"eta": "eta = 0.005", "gamma": "gamma = 1.0", "eps": "eps = 0.5", "H0": "H0 = 8.0",
                   "alpha": "alpha = 1.0"}[key]
        cfg = write_cfg(tmp_path, text.replace(written, line))
        for command in ("validate-config", "run"):
            assert main([command, "--config", str(cfg), "--quiet"]) == 2
            assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_weak_morse_alpha_is_noted_and_bounds_the_run(self, tmp_path, capsys):
        """alpha_mode = weak_morse above its floor (44.2 here) gives alpha =
        C3 / gamma.  validate-config prints its note, and run writes the note
        into the header and draws the overlay at that alpha."""
        out = tmp_path / "r"
        text = BASE_CFG.format(out=out).replace("eta = 0.005", "eta = 1e-9").replace("gamma = 1.0", "gamma = 50.0")
        text = text.replace("alpha = 1.0", "alpha_mode = weak_morse\nlambda_dagger = 1.0\nL_prime = 0.01\nC_F = 1.0")
        cfg = write_cfg(tmp_path, text)
        lsi = theory.lsi_constant_weak_morse(50.0, 1.0, 0.5, 1.0, 2, 0.01, 1.0)
        note = f"alpha from weak-Morse LSI: C3={lsi.C3!r} gamma_floor={lsi.gamma_floor!r}"
        assert main(["validate-config", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"note: {note}"
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert f"# note: {note}" in lines
        rows = [l.split(",") for l in lines if l and not l.startswith("#")]
        bias = theory.bias_term("svrg_ld", 1e-9, 50.0, 2, 1.0, lsi.alpha, 16, 4, 4)
        assert {row[rows[0].index("bound_kl_bias")] for row in rows[1:]} == {repr(bias)}

    @pytest.mark.parametrize("edit, written", [
        ([("eta = 0.005", "auto = true\neps = 1e-300"), ("steps = 120", "")], "eps = 1e-300"),
        ([("steps = 120", "steps = 100000000000000000000")], "steps = 100000000000000000000"),
    ], ids=["auto-eps", "steps"])
    def test_a_step_count_no_array_can_store_is_refused_by_name(self, tmp_path, capsys, edit, written):
        """A run stores (K // thin + 2) x replicates x d float64 values in one
        array.  A K past the largest array (auto mode's K from a tiny eps, or
        steps itself) is refused by the key the user wrote, from every
        command, before any directory is made."""
        out = tmp_path / "r"
        text = BASE_CFG.format(out=out)
        for old, new in edit:
            text = text.replace(old, new)
        cfg = write_cfg(tmp_path, text)
        for command in ("validate-config", "run"):
            assert main([command, "--config", str(cfg), "--quiet"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"[sampler] {written} gives K = ") and err.count("\n") == 1
            assert err.endswith(f"exceed the largest array, {np.iinfo(np.intp).max} bytes\n")
        assert not out.exists()


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

    @pytest.mark.parametrize("name", sorted(HEADER_CASES))
    def test_header_potential_lines_parse_back_to_the_potential(self, tmp_path, name):
        """The header's potential.* and run.* lines, read back as sections,
        parse to the run's own: they name only keys the potential takes, and
        render tuples as the parser reads them."""
        data = tmp_path / "data.txt"
        data.write_text("0.5 -1.0 1.0\n-0.2 0.3 0.0\n1.5 0.7 1.0\n-0.4 -0.9 0.0\n")
        out = tmp_path / "r"
        builtin, keys, run_keys = HEADER_CASES[name]
        text = f"[potential]\nname = {builtin}\n{keys.format(data=data)}" + SGLD_RUN.format(out=out) + run_keys
        assert main(["run", "--config", str(write_cfg(tmp_path, text)), "--quiet"]) == 0
        header = (out / "summary.csv").read_text().splitlines()
        back = {section: "\n".join(line.removeprefix(f"# {section}.") for line in header
                                   if line.startswith(f"# {section}."))
                for section in ("potential", "run")}
        again = parse_config_text(f"[potential]\n{back['potential']}\n[sampler]\nvariant = sgld\n[run]\n{back['run']}\n")
        given = parse_config_text(text)
        assert (again.potential, again.run) == (given.potential, given.run)

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

    def test_box_restricted_L_is_a_note_and_drops_the_overlay(self, tmp_path, capsys):
        """The double well's L holds only on its box: its step cap is 2.6e-5 there,
        and eta = 1e-5 under it proves nothing, so no bound is written."""
        out = tmp_path / "r"
        cfg = write_cfg(tmp_path, BOX_L_CFG.format(out=out))
        assert main(["run", "--config", str(cfg)]) == 0
        assert "note: the step cap and alpha <= gamma*L are not checked" in capsys.readouterr().out
        lines = (out / "summary.csv").read_text().splitlines()
        assert any(l.startswith("# note: the step cap") for l in lines)
        assert not any("bound_kl" in l for l in lines)

    @pytest.mark.parametrize("edit, refusal", [
        (("eta = 1e-5", "auto = true\neps = 0.5"), r"\[sampler\] auto mode refuses .*L"),
        (("alpha = 0.5", "alpha_mode = dissipative\nA_star = 0.0\nB_star = 0.0"),
         r"\[theory\] refusing to feed .*L.* into an LSI formula"),
        (("alpha = 0.5", "alpha_mode = weak_morse\nlambda_dagger = 1.0\nL_prime = 6.0\nC_F = 1.0"),
         r"\[theory\] refusing to feed .*L.* into an LSI formula"),
    ], ids=["auto", "dissipative", "weak_morse"])
    def test_box_restricted_L_is_refused_by_theory_driven_modes(self, tmp_path, capsys, edit, refusal):
        """Auto mode and the two LSI modes would feed the double well's L, which
        bounds the curvature only on its box, into a global formula."""
        text = BOX_L_CFG.format(out=tmp_path / "r").replace(*edit)
        for command in ("validate-config", "run"):
            assert main([command, "--config", str(write_cfg(tmp_path, text)), "--quiet"]) == 2
            assert re.fullmatch(refusal + ".*\n", capsys.readouterr().err)
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("x0, left", [("3.0", [0, 0]), ("0.0", [])])
    def test_a_replicate_outside_the_box_is_a_note(self, tmp_path, capsys, x0, left):
        """From x0 = 3 every replicate starts outside the box |x| <= 2 on which L
        holds, which the run notes at stored step 0; from x0 = 0 the chains stay
        well inside it, and no such note is written."""
        out = tmp_path / "r"
        text = BOX_L_CFG.format(out=out).replace("seed = 5", f"seed = 5\nx0 = {x0}")
        assert main(["run", "--config", str(write_cfg(tmp_path, text))]) == 0
        notes = [f"replicate {r} is outside the box |x_j| <= 2.0, where L holds, first at stored step {k}"
                 for r, k in enumerate(left)]
        printed = capsys.readouterr().out.splitlines()
        assert [l for l in printed if "outside the box" in l] == [f"note: {n}" for n in notes]
        for csv in ("summary.csv", "replicate_000.csv", "replicate_001.csv"):
            lines = (out / csv).read_text().splitlines()
            assert [l for l in lines if "outside the box" in l] == [f"# note: {n}" for n in notes]

    def test_the_box_note_names_the_first_stored_step_outside(self, tmp_path, capsys):
        """From x0 = 1.9 the replicates leave the box |x| <= 2 at different steps
        before they diverge; each note names the first step whose iterate, in the
        replicate's own CSV, lies outside."""
        out = tmp_path / "r"
        text = UNEVEN_CFG.format(out=out).replace("x0 = 2.5", "x0 = 1.9")
        assert main(["run", "--config", str(write_cfg(tmp_path, text))]) == 3
        first = []
        for r in range(6):
            rows = [l.split(",") for l in (out / f"replicate_{r:03d}.csv").read_text().splitlines()
                    if l and not l.startswith(("#", "step"))]
            first.append(next(int(row[0]) for row in rows if abs(float(row[-1])) > 2.0))
        assert len(set(first)) > 2
        assert [l for l in capsys.readouterr().out.splitlines() if "outside the box" in l] == [
            f"note: replicate {r} is outside the box |x_j| <= 2.0, where L holds, first at stored step {k}"
            for r, k in enumerate(first)]

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

    def test_auto_mode_refuses_gamma_zero(self, tmp_path, capsys):
        """Auto mode's step size is the step cap's formula, which refuses
        gamma = 0 by name rather than dividing by it."""
        text = BASE_CFG.format(out=tmp_path / "r").replace("gamma = 1.0", "gamma = 0.0")
        text = text.replace("eta = 0.005", "auto = true\neps = 0.5").replace("steps = 120", "")
        assert main(["validate-config", "--config", str(write_cfg(tmp_path, text))]) == 2
        assert capsys.readouterr().err == "need alpha, L, m, gamma > 0\n"

    def test_auto_mode_nudges_eta_under_the_step_cap_at_m(self, tmp_path, capsys):
        """At n = 15 auto mode's step size is the step cap at m = sqrt(15), but
        m = 4 > sqrt(15) resolves a smaller cap: eta is nudged just under it."""
        text = BASE_CFG.format(out=tmp_path / "r").replace("n = 16", "n = 15")
        text = text.replace("eta = 0.005", "auto = true\neps = 10.0").replace("steps = 120", "")
        assert main(["validate-config", "--config", str(write_cfg(tmp_path, text))]) == 0
        eta = theory.step_size_cap("svrg_ld", 1.0, 1.0, 4, 1.0) * (1.0 - 1e-9)
        assert theory.recommended_eta("svrg_ld", 10.0, 1.0, 1.0, 2, 1.0, 15) > eta
        assert f" eta={eta!r} " in capsys.readouterr().out.splitlines()[-1]

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

    def test_schedule_is_not_checked_against_a_box_restricted_L(self, tmp_path, capsys):
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
        scfg = vrld.SamplerConfig(variant="sarah_ld", eta=sched.eta(0), gamma=sched.gamma(0),
                                  B=4, m=4, K=40, seed=5)
        trace = vrld.run_chain(obj, scfg, np.zeros(1), replicate=0, sched=sched)
        rows = [l.split(",") for l in (out / "replicate_000.csv").read_text().splitlines()
                if l and not l.startswith(("#", "step"))]
        np.testing.assert_allclose([float(r[5]) for r in rows], trace.iterates[:, 0], rtol=0)


# the mixture has no F_star
MIXTURE_CFG = """
[potential]
name = gaussian_mixture

[sampler]
variant = sgld
eta = 0.01
steps = 20

[run]
replicates = 3
out = {out}
"""


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
        [point] = resolve(parse_config_text(HUGE_CFG.format(out="r")), "run")
        traces, _ = execute(point, values=False)
        assert all(np.array_equal(t.iterates, run_chain(point.obj, point.scfg, np.array([1.0]), replicate=r).iterates)
                   for r, t in enumerate(traces))
        vals = _metric_series("kl_surrogate", point, traces, None)
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

    def test_diverged_variants_get_a_row_and_exit_3(self, tmp_path, capsys):
        text = BASE_CFG.format(out=tmp_path / "r").replace("eta = 0.005", "eta = 200000000.0")
        cfg = write_cfg(tmp_path, text + "\n[compare]\nvariants = sgld, svrg_ld\nmetric = mean_f\nthreshold = 1.0\n")
        assert main(["compare", "--config", str(cfg)]) == 3
        assert (tmp_path / "r" / "compare.csv").read_text().splitlines()[1:] == [
            "variant,grad_evals_at_threshold,se", "sgld,diverged,", "svrg_ld,diverged,"]
        assert capsys.readouterr().out.splitlines()[1:] == ["  sgld     diverged", "  svrg_ld  diverged"]

    @pytest.mark.parametrize("text,message", [
        (BASE_CFG + "\n[compare]\nvariants = lmc, sgld\nmetric = bogus\nthreshold = 1.0\n",
         "[compare] unknown metric 'bogus'"),
        (MIXTURE_CFG + "\n[compare]\nvariants = lmc, sgld\nmetric = suboptimality\nthreshold = 0.1\n",
         "[compare] suboptimality metric needs a potential with F_star"),
        (BASE_CFG.replace("replicates = 5", "replicates = 3")
         + "\n[compare]\nvariants = lmc, sgld\nmetric = kl_surrogate\nthreshold = 1.0\n",
         "[compare] kl_surrogate needs at least 4 replicates, got 3"),
    ], ids=["unknown", "no-F_star", "too-few-replicates"])
    def test_metric_is_refused_before_any_chain_runs(self, tmp_path, capsys, monkeypatch, text, message):
        import vrld.cli as cli

        runs = []
        monkeypatch.setattr(cli.samplers, "run_replicates", lambda *a: runs.append(a))
        cfg = write_cfg(tmp_path, text.format(out=tmp_path / "r"))
        assert main(["compare", "--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert runs == [] and not (tmp_path / "r").exists()

    @pytest.mark.parametrize("text,message", [
        (BASE_CFG, "compare needs a [compare] section"),
        (BASE_CFG + "\n[compare]\nvariants = sgld\nthreshold = 1.0\n", "[compare] needs at least two variants"),
        (MIXTURE_CFG.replace("replicates = 3", "replicates = 4")
         + "\n[compare]\nvariants = lmc, sgld\nmetric = kl_surrogate\nthreshold = 0.1\n",
         "[compare] kl_surrogate metric needs the quadratic potential family"),
    ], ids=["no-section", "one-variant", "kl_surrogate-not-quadratic"])
    def test_a_config_compare_cannot_run_is_refused(self, tmp_path, capsys, text, message):
        cfg = write_cfg(tmp_path, text.format(out=tmp_path / "r"))
        assert main(["compare", "--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "r").exists()

    def test_default_metric_is_suboptimality(self, tmp_path):
        """Without a metric key compare counts grad evals to a suboptimality
        threshold: the same row as metric = suboptimality written in."""
        text = BASE_CFG.format(out=tmp_path / "r") + "\n[compare]\nvariants = sgld, svrg_ld\nthreshold = 0.5\n"
        assert main(["compare", "--config", str(write_cfg(tmp_path, text, "a.cfg")), "--quiet"]) == 0
        default = (tmp_path / "r" / "compare.csv").read_text()
        text = text.replace("threshold = 0.5", "metric = suboptimality\nthreshold = 0.5")
        assert main(["compare", "--config", str(write_cfg(tmp_path, text, "b.cfg")), "--quiet"]) == 0
        assert default == (tmp_path / "r" / "compare.csv").read_text()
        assert default.startswith("# metric = suboptimality, threshold = 0.5\n")
        assert [row.split(",")[0] for row in default.splitlines()[2:]] == ["sgld", "svrg_ld"]

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

    @pytest.mark.parametrize("axis,values,bad", [
        ("B", "2.5, 4.9", "2.5"),
        ("m", "2, 3.5", "3.5"),
        ("n", "16, 16.25", "16.25"),
    ])
    def test_integer_axis_refuses_a_non_integral_value(self, tmp_path, capsys, axis, values, bad):
        """B, m and n are counts: a fractional value is refused, naming it,
        not truncated."""
        cfg = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path / "r") + f"\n[sweep]\naxis = {axis}\nvalues = {values}\n")
        assert main(["sweep", "--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"axis {axis}" in err and bad in err
        assert not (tmp_path / "r" / "sweep.csv").exists()

    @pytest.mark.parametrize("text,message", [
        (BASE_CFG, "sweep needs a [sweep] section"),
        (BASE_CFG + "\n[sweep]\naxis = temperature\nvalues = 1.0\n",
         "[sweep] axis must be eta, gamma, B, m, or n, got 'temperature'"),
        (LOGISTIC_COMPARE_CFG.split("[compare]")[0] + "[sweep]\naxis = n\nvalues = 8\n",
         "[sweep] n axis is not available for this potential"),
    ], ids=["no-section", "unknown-axis", "n-axis-logistic"])
    def test_a_config_sweep_cannot_run_is_refused(self, tmp_path, capsys, text, message):
        data = tmp_path / "data.txt"
        data.write_text("0.5 -1.0 1.0\n-0.2 0.3 0.0\n1.5 0.7 1.0\n-0.4 -0.9 0.0\n")
        cfg = write_cfg(tmp_path, text.format(out=tmp_path / "r", data=data))
        assert main(["sweep", "--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "r").exists()

    def test_a_diverging_point_stops_the_sweep_with_exit_3(self, tmp_path, capsys):
        """The sweep writes the points before the one that diverged, names it
        on stderr and exits 3."""
        out = tmp_path / "r"
        text = BASE_CFG.format(out=out).replace("[theory]\nalpha = 1.0\nH0 = 8.0\n", "")
        cfg = write_cfg(tmp_path, text + "\n[sweep]\naxis = eta\nvalues = 0.005, 200000000.0\n")
        assert main(["sweep", "--config", str(cfg), "--quiet"]) == 3
        assert capsys.readouterr().err == "sweep point eta=200000000.0 diverged\n"
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
        assert rows and {row.split(",")[1] for row in rows} == {"0.005"}

    def test_bad_later_value_writes_nothing(self, tmp_path, capsys):
        """Every value is resolved before the first one runs."""
        cfg = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path / "r") + "\n[sweep]\naxis = eta\nvalues = 0.005, -1.0\n")
        assert main(["sweep", "--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == "[sampler] step size eta must be > 0\n"
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


# [compare] and [sweep] that leave the [sampler] section as it is
EVERY_COMMAND_CFG = BASE_CFG + """
[compare]
variants = svrg_ld, sarah_ld
metric = mean_f
threshold = 1.0

[sweep]
axis = gamma
values = 1.0
"""

# the edits that turn EVERY_COMMAND_CFG's points to auto mode, which compare and
# sweep take [theory] for, and to an annealed schedule
_AUTO = [("eta = 0.005", "auto = true\neps = 0.5"), ("steps = 120\n", "")]
_ANNEAL = [("eta = 0.005\n", ""), ("gamma = 1.0\n", ""),
           ("[run]\n", "[anneal]\neta_bar = 0.001\ngamma_bar = 1.0\nsigma = 3.0\nmu = 13.0\n\n[run]\n")]
# the edits that set the run's variant and every compare variant's first one
_LMC = [("variant = svrg_ld", "variant = lmc"), ("variants = svrg_ld", "variants = lmc")]

# the edits that break EVERY_COMMAND_CFG, and the message each command gives
BAD_EDITS = {
    "x0": ([("[run]\n", "[run]\nx0 = 1.0, 2.0, 3.0\n")], "x0 must have dimension 2"),
    "eta": ([("eta = 0.005", "eta = 0.0")], "[sampler] step size eta must be > 0"),
    "B": ([("batch = 4", "batch = 32")], "[sampler] batch size must satisfy 1 <= B <= n=16, got 32"),
    "burn_in=-1": ([("[run]\n", "[run]\nburn_in = -1\n")], "[run] burn_in must lie in [0, K=120], got -1"),
    "burn_in=K+1": ([("[run]\n", "[run]\nburn_in = 121\n")], "[run] burn_in must lie in [0, K=120], got 121"),
    "anneal": (_ANNEAL, "[{command}] annealed configs are not supported"),
    "variant": ([("variant = svrg_ld", "variant = hmc"), ("variants = svrg_ld", "variants = hmc")],
                "[sampler] variant must be one of ('lmc', 'sgld', 'svrg_ld', 'sarah_ld')"),
    "no-eta": ([("eta = 0.005\n", "")], "[sampler] needs eta and steps (or auto = true)"),
    "auto-no-eps": ([("eta = 0.005", "auto = true"), ("steps = 120\n", "")], "[sampler] auto mode needs a target eps"),
    "auto-lmc": (_AUTO + _LMC, "[sampler] auto mode applies to svrg_ld / sarah_ld"),
    "auto-no-H0": (_AUTO + [("H0 = 8.0\n", "")], "[theory] auto mode needs H0 (initial KL estimate)"),
    "auto-no-alpha": (_AUTO + [("alpha = 1.0\n", "")], "[theory] alpha_mode=declared needs alpha"),
    "weak_morse-keys": (_AUTO + [("alpha = 1.0", "alpha_mode = weak_morse")],
                        "[theory] alpha_mode=weak_morse needs lambda_dagger, L_prime, C_F"),
    "weak_morse-floor": (_AUTO + [("alpha = 1.0",
                                   "alpha_mode = weak_morse\nlambda_dagger = 1.0\nL_prime = 0.01\nC_F = 1.0")],
                         "[theory] gamma=1.0 is below the weak-Morse floor 44.2368 (binding term: 4 L'^2 a^6)"),
    "dissipative-keys": (_AUTO + [("alpha = 1.0", "alpha_mode = dissipative")],
                         "[theory] alpha_mode=dissipative needs A_star and B_star"),
    "dissipative-floor": (_AUTO + [("alpha = 1.0", "alpha_mode = dissipative\nA_star = 0.0\nB_star = 0.0")],
                          "[theory] hypothesis gamma >= 2/M violated: gamma=1.0, 2/M=4.0"),
    "alpha_mode": (_AUTO + [("alpha = 1.0", "alpha_mode = guess")], "[theory] unknown alpha_mode 'guess'"),
    "anneal-lmc": (_ANNEAL + _LMC, "[anneal] applies to svrg_ld / sarah_ld only"),
    "anneal-auto": ([("eta = 0.005\n", "auto = true\neps = 0.5\n")] + _ANNEAL[1:],
                    "[anneal] and auto mode are mutually exclusive"),
    "anneal-no-steps": (_ANNEAL + [("steps = 120\n", "")], "[sampler] needs steps"),
    "steps": ([("steps = 120", "steps = 100000000000000000000")],
              "[sampler] steps = 100000000000000000000 gives K = 1.000e+20: its stored steps, "
              "(K // thin + 2) x replicates x d float64 values, exceed the largest array, "
              f"{np.iinfo(np.intp).max} bytes"),
}


@pytest.mark.parametrize("command,bad", [(command, bad) for command in ("run", "compare", "sweep")
                                         for bad in BAD_EDITS if (command, bad) != ("run", "anneal")])
def test_bad_config_exits_2_before_any_output(tmp_path, capsys, command, bad):
    """Every command resolves its points in one place: a bad config gives the
    same message from each command that refuses it, and no CSV is written.
    run takes [anneal]."""
    edits, message = BAD_EDITS[bad]
    text = EVERY_COMMAND_CFG.format(out=tmp_path / "r")
    for old, new in edits:
        text = text.replace(old, new)
    assert main([command, "--config", str(write_cfg(tmp_path, text)), "--quiet"]) == 2
    assert capsys.readouterr().err == message.format(command=command) + "\n"
    assert not list((tmp_path / "r").glob("*.csv"))
