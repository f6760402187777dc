import importlib
import io
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cdsreplica
from cdsreplica import (
    BondSpec,
    DiscountCurve,
    SurvivalCurve,
    annuity_defaultable,
    annuity_riskfree,
    build_schedule,
    early_termination_pv,
    forward_bond_price,
    mtm_profile,
    par_asw_spread,
    par_cancelable_asw_spread,
    par_cancelable_asw_spread_generalized,
    par_cds_spread,
    price_riskfree_bond,
    price_risky_bond,
    price_risky_floater,
)
from cdsreplica.cli import _build_market, cmd_price, main, parse_config, serialize_config
from markets import random_market

F1_CONFIG = {
    "discount_nodes": [[5.0, 0.02]],
    "hazard_nodes": [[5.0, 0.02]],
    "bond": {"coupon": 0.05, "recovery": 0.4, "maturity": 5.0, "frequency": 1},
    "repo": {"spread": 0.001, "forward_price": "fair"},
}


@pytest.fixture
def config_file(tmp_path):
    def write(payload):
        path = tmp_path / "market.json"
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrice:
    def test_report_matches_library_calls(self, config_file, capsys):
        code, out, _ = run_cli(capsys, "--config", config_file(F1_CONFIG), "price")
        assert code == 0
        report = json.loads(out)

        discount = DiscountCurve.flat(0.02)
        survival = SurvivalCurve.flat(0.02)
        schedule = build_schedule(0.0, 5.0, 1)
        bond = BondSpec(coupon=0.05, recovery=0.4)
        assert report["risky_bond_price"] == price_risky_bond(discount, survival, schedule, bond)
        assert report["cds_par_spread"] == par_cds_spread(discount, survival, schedule, 0.4).spread
        assert report["asw_par_spread"] == par_asw_spread(discount, survival, schedule, bond).spread
        assert report["cancelable_asw_par_spread"] == par_cancelable_asw_spread(
            discount, survival, schedule, bond
        ).spread
        assert "early_termination_pv" in report
        assert "generalized_cancelable_asw_par_spread" not in report

    def test_riskless_config_gives_zero_spreads(self, config_file, capsys):
        payload = dict(F1_CONFIG, hazard_nodes=[[5.0, 0.0]])
        code, out, _ = run_cli(capsys, "--config", config_file(payload), "price")
        assert code == 0
        report = json.loads(out)
        for key in ("cds_par_spread", "asw_par_spread", "cancelable_asw_par_spread"):
            assert abs(report[key]) < 1e-14

    def test_early_repo_adds_generalized_section(self, config_file, capsys):
        payload = dict(F1_CONFIG, repo={"spread": 0.001, "maturity": 3.0})
        code, out, _ = run_cli(capsys, "--config", config_file(payload), "price")
        assert code == 0
        report = json.loads(out)
        assert "forward_bond_price" in report
        assert "generalized_cancelable_asw_par_spread" in report

    def test_pretty_and_bp_flags(self, config_file, capsys):
        code, out, _ = run_cli(
            capsys, "--config", config_file(F1_CONFIG), "--pretty", "--bp", "price"
        )
        assert code == 0
        assert "cds_par_spread" in out
        assert "bp" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestConfigValidation:
    def test_both_hazard_and_quote_rejected(self, config_file, capsys):
        payload = dict(F1_CONFIG, cds_quote=0.01)
        code, _, err = run_cli(capsys, "--config", config_file(payload), "price")
        assert code == 2
        assert "hazard_nodes" in err

    def test_neither_hazard_nor_quote_rejected(self, config_file, capsys):
        payload = {k: v for k, v in F1_CONFIG.items() if k != "hazard_nodes"}
        code, _, err = run_cli(capsys, "--config", config_file(payload), "price")
        assert code == 2

    def test_unknown_field_named(self, config_file, capsys):
        payload = dict(F1_CONFIG, surprise=1)
        code, _, err = run_cli(capsys, "--config", config_file(payload), "price")
        assert code == 2
        assert "surprise" in err

    def test_bad_number_named(self, config_file, capsys):
        payload = dict(F1_CONFIG, bond=dict(F1_CONFIG["bond"], coupon="high"))
        code, _, err = run_cli(capsys, "--config", config_file(payload), "price")
        assert code == 2
        assert "bond.coupon" in err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "--config", str(path), "price")
        assert code == 2

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "--config", str(tmp_path / "absent.json"), "price")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot read config file ")

    @pytest.mark.parametrize(
        "raw",
        [b"\xff\xfe" + json.dumps(F1_CONFIG).encode(), b"[" * 200_000,
         b'{"cds_quote": 1' + b"0" * 5000 + b"}"],
        ids=["not-utf8", "nested-too-deep", "integer-past-digit-limit"],
    )
    def test_unreadable_config_file_rejected(self, tmp_path, capsys, raw):
        path = tmp_path / "market.json"
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, "--config", str(path), "price")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot read config file ")
        assert "Traceback" not in err

    def test_roundtrip_parse_serialize_parse(self):
        with_quotes = dict(F1_CONFIG, quotes={"cds_bid": 0.01, "cds_ask": 0.012,
                                              "aswc_bid": 0.009, "aswc_ask": 0.011})
        for payload in (with_quotes, *(c for _, c in _price_configs())):
            config = parse_config(payload)
            assert parse_config(serialize_config(config)) == config

    def test_roundtrip_with_quote_calibration(self):
        payload = {k: v for k, v in F1_CONFIG.items() if k != "hazard_nodes"}
        payload["cds_quote"] = 0.0123
        config = parse_config(payload)
        assert parse_config(serialize_config(config)) == config


class TestReplicate:
    def test_clause_on_exits_zero_with_flat_residuals(self, config_file, capsys):
        code, out, _ = run_cli(capsys, "--config", config_file(F1_CONFIG), "replicate")
        assert code == 0
        report = json.loads(out)
        assert report["clause_enabled"] is True
        assert report["max_abs_residual"] < 1e-12
        assert len(report["scenarios"]) == 6

    def test_no_clause_residuals_match_close_outs(self, config_file, capsys):
        code, out, _ = run_cli(
            capsys, "--config", config_file(F1_CONFIG), "replicate", "--no-clause"
        )
        assert code == 0
        report = json.loads(out)
        discount = DiscountCurve.flat(0.02)
        schedule = build_schedule(0.0, 5.0, 1)
        bond = BondSpec(coupon=0.05, recovery=0.4)
        profile = mtm_profile(discount, schedule, bond, report["asw_spread"])
        for row in report["scenarios"]:
            if row["default_bucket"] is None:
                continue
            k = row["default_bucket"]
            expected = discount.discount_factor(float(k)) * profile.values[k - 1]
            assert row["residual"] == pytest.approx(expected, abs=1e-12)

    def test_residual_above_tolerance_exits_4(self, config_file, capsys, monkeypatch):
        import cdsreplica.cli as cli_module

        real = cli_module.replication_report

        def degraded(*args, **kwargs):
            report = real(*args, **kwargs)
            scenarios = report.scenarios[:-1] + (
                report.scenarios[-1]._replace(residual=1e-6),
            )
            return type(report)(
                **{
                    **report.__dict__,
                    "scenarios": scenarios,
                    "max_abs_residual": 1e-6,
                }
            )

        monkeypatch.setattr(cli_module, "replication_report", degraded)
        code, _, _ = run_cli(capsys, "--config", config_file(F1_CONFIG), "replicate")
        assert code == 4

    def test_pretty_prints_one_row_per_scenario(self, config_file, capsys):
        code, out, _ = run_cli(capsys, "--config", config_file(F1_CONFIG), "--pretty", "replicate")
        assert code == 0
        table = out.split("\n\n", 1)[1].splitlines()
        assert table[0].split() == ["default_bucket", "probability", "residual"]
        assert [row.split()[0] for row in table[1:]] == ["1", "2", "3", "4", "5", "survival"]

    def test_mc_runs_are_reproducible(self, config_file, capsys):
        args = (
            "--config", config_file(F1_CONFIG),
            "replicate", "--no-clause", "--mc", "20000", "--seed", "7",
        )
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        report = json.loads(out_a)
        assert report["mc_paths"] == 20000
        assert report["mc_seed"] == 7
        assert report["mc_std_error"] > 0.0


class TestImpliedRepo:
    QUOTES = {"cds_bid": 0.010, "cds_ask": 0.012, "aswc_bid": 0.009, "aswc_ask": 0.011}

    def test_spreads(self, config_file, capsys):
        payload = dict(F1_CONFIG, quotes=self.QUOTES)
        code, out, _ = run_cli(capsys, "--config", config_file(payload), "implied-repo")
        assert code == 0
        report = json.loads(out)
        assert report["implied_repo_spread"] == pytest.approx(0.003, abs=1e-15)
        assert report["implied_reverse_repo_spread"] == pytest.approx(-0.001, abs=1e-15)

    def test_crossed_quotes_exit_2(self, config_file, capsys):
        payload = dict(F1_CONFIG, quotes=dict(self.QUOTES, cds_bid=0.013))
        code, _, err = run_cli(capsys, "--config", config_file(payload), "implied-repo")
        assert code == 2

    def test_missing_quotes_exit_2(self, config_file, capsys):
        code, _, err = run_cli(capsys, "--config", config_file(F1_CONFIG), "implied-repo")
        assert code == 2
        assert "quotes" in err


class TestCalibrate:
    def base(self, quote):
        payload = {k: v for k, v in F1_CONFIG.items() if k != "hazard_nodes"}
        payload["cds_quote"] = quote
        return payload

    def test_zero_quote(self, config_file, capsys):
        code, out, _ = run_cli(capsys, "--config", config_file(self.base(0.0)), "calibrate")
        assert code == 0
        report = json.loads(out)
        assert report["calibrated_hazard"] == 0.0

    def test_roundtrip_quote(self, config_file, capsys):
        discount = DiscountCurve.flat(0.02)
        schedule = build_schedule(0.0, 5.0, 1)
        quote = par_cds_spread(discount, SurvivalCurve.flat(0.02), schedule, 0.4).spread
        code, out, _ = run_cli(capsys, "--config", config_file(self.base(quote)), "calibrate")
        assert code == 0
        report = json.loads(out)
        assert report["calibrated_hazard"] == pytest.approx(0.02, abs=1e-10)
        assert report["reproduced_cds_spread"] == pytest.approx(quote, abs=1e-12)

    def test_unattainable_quote_exit_3(self, config_file, capsys):
        code, _, err = run_cli(capsys, "--config", config_file(self.base(20000.0)), "calibrate")
        assert code == 3
        assert "quote" in err.lower()

    def test_pretty_bp_scales_target_and_reproduced_spread(self, config_file, capsys):
        code, out, _ = run_cli(
            capsys, "--config", config_file(self.base(0.0123)), "--pretty", "--bp", "calibrate"
        )
        assert code == 0
        lines = {line.split()[0]: line for line in out.splitlines()}
        assert lines["target_cds_spread"].endswith(" bp")
        assert lines["reproduced_cds_spread"].endswith(" bp")
        assert lines["residual_spread"].endswith(" bp")

    def test_reports_the_fit_it_priced(self, config_file, capsys):
        code, out, _ = run_cli(capsys, "--config", config_file(self.base(0.0123)), "calibrate")
        assert code == 0
        report = json.loads(out)
        fitted = SurvivalCurve.flat(report["calibrated_hazard"])
        schedule = build_schedule(0.0, 5.0, 1)
        spread = par_cds_spread(DiscountCurve.flat(0.02), fitted, schedule, 0.4).spread
        assert report["reproduced_cds_spread"] == spread
        assert report["residual_spread"] == spread - 0.0123
        assert isinstance(report["iterations"], int) and 1 <= report["iterations"] <= 20


def _with(section, **fields):
    return dict(F1_CONFIG, **{section: dict(F1_CONFIG.get(section, {}), **fields)})


# Q(3) = exp(-900) underflows to 0.0, so the forward bond price at the repo's end is undefined.
UNDERFLOWED_FORWARD = dict(F1_CONFIG, hazard_nodes=[[5.0, 300.0]], repo={"maturity": 3.0})
# The annuity is about 1e-304, so the par spread is finite but absurd (6.2e303).
ABSURD_SPREAD = dict(F1_CONFIG, hazard_nodes=[[5.0, 700.0]])
# The residuals are finite, but their sampled squares overflow.
OVERFLOWED_MC = dict(F1_CONFIG, discount_nodes=[[5.0, -100.0]],
                     repo={"maturity": 4.0, "forward_price": 0.5})


@pytest.mark.parametrize(
    "payload,argv,code",
    [
        (F1_CONFIG, ("replicate", "--mc", "10"), 2),
        (F1_CONFIG, ("replicate", "--mc", str(10**20)), 2),
        (F1_CONFIG, ("replicate", "--mc", "2000", "--seed", "-1"), 2),
        (_with("repo", maturity=2.5), ("replicate",), 2),
        (_with("repo", maturity=2.5), ("price",), 2),
        (_with("bond", frequency=3), ("price",), 2),
        (_with("bond", maturity=1.3, frequency=4), ("price",), 2),
        (dict(F1_CONFIG, discount_nodes=[[5.0, 1e308]]), ("price",), 3),
        (dict(F1_CONFIG, discount_nodes=[[5.0, -300]]), ("price",), 3),
        (_with("bond", coupon=1e308), ("replicate",), 3),
        (dict(F1_CONFIG, discount_nodes=[[5.0, 0.02], [3.0, 0.01]]), ("price",), 2),
        (dict(F1_CONFIG, hazard_nodes=[[5.0, 0.02], [5.0, 0.01]]), ("replicate",), 2),
        (_with("bond", coupon=1e300) | {"discount_nodes": [[5.0, -100.0]]}, ("price",), 3),
        (_with("bond", coupon=1e300) | {"discount_nodes": [[5.0, -100.0]]}, ("replicate",), 3),
        (_with("repo", maturity=7.0), ("replicate",), 2),
        (_with("repo", maturity=7.0), ("price",), 2),
        (_with("repo", forward_price=0.9), ("replicate",), 2),
        (_with("repo", forward_price=0.9), ("price",), 2),
        (_with("repo", spread=1e300) | {"discount_nodes": [[5.0, -100.0]]}, ("replicate",), 3),
        (_with("repo", spread=1e300) | {"discount_nodes": [[5.0, -100.0]]},
         ("replicate", "--no-clause"), 3),
        (UNDERFLOWED_FORWARD, ("price",), 3),
        (UNDERFLOWED_FORWARD, ("replicate",), 3),
        (F1_CONFIG, ("calibrate",), 2),
        (OVERFLOWED_MC, ("replicate", "--mc", "1000"), 4),
        (ABSURD_SPREAD, ("price",), 3),
        (ABSURD_SPREAD, ("replicate",), 3),
        (_with("bond", maturity=1e308, frequency=4), ("price",), 2),
        (_with("bond", maturity=1e9), ("price",), 2),
    ],
    ids=["mc-paths", "mc-paths-above-cap", "mc-seed", "repo-off-grid", "repo-off-grid-price",
         "frequency", "non-integral-maturity", "vanishing-annuity", "discount-overflow", "coupon-overflow",
         "discount-nodes-out-of-order", "hazard-nodes-repeated-time", "non-finite-price",
         "non-finite-replicate", "repo-past-bond-maturity", "repo-past-bond-maturity-price",
         "repo-to-maturity-off-par-forward", "repo-to-maturity-off-par-forward-price",
         "repo-row-overflow", "repo-row-overflow-no-clause", "underflowed-forward-price",
         "underflowed-forward-replicate", "calibrate-without-quote", "mc-overflow",
         "absurd-spread-price", "absurd-spread-replicate", "period-count-overflows",
         "periods-above-the-limit"],
)
def test_bad_input_exits_with_one_error_line(config_file, capsys, payload, argv, code):
    got, out, err = run_cli(capsys, "--config", config_file(payload), *argv)
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_overflowing_discount_factor_exits_3_naming_the_curve(config_file, capsys):
    # exp(1000) overflows at t_1: the curve names itself and the time in the error line
    payload = dict(F1_CONFIG, discount_nodes=[[5.0, -1000.0]])
    code, out, err = run_cli(capsys, "--config", config_file(payload), "price")
    assert code == 3
    assert out == ""
    assert err == "error: discount curve at t = 1.0: exp(1000.0) overflows\n"


@pytest.mark.parametrize(
    "payload,path",
    [
        (_with("bond", surprise=1), "bond.surprise"),
        (_with("repo", surprise=1), "repo.surprise"),
        (_with("quotes", **TestImpliedRepo.QUOTES, surprise=1), "quotes.surprise"),
        (dict(F1_CONFIG, bond=[0.05, 0.4, 5.0, 1]), "bond"),
        (dict(F1_CONFIG, repo=0.001), "repo"),
        (dict(F1_CONFIG, quotes="none"), "quotes"),
        ([F1_CONFIG], "config root"),
        (dict(F1_CONFIG, quotes={k: v for k, v in TestImpliedRepo.QUOTES.items()
                                 if k != "cds_ask"}), "quotes.cds_ask"),
        (_with("repo", maturity=0.0), "repo.maturity"),
        (_with("repo", forward_price="FAIR"), "repo.forward_price"),
        (dict(F1_CONFIG, discount_nodes=[[5.0, 0.02], [3.0, 0.01]]), "discount_nodes[1].time"),
        (_with("bond", frequency=4.0), "bond.frequency"),
        (dict(F1_CONFIG, discount_nodes=[]), "discount_nodes"),
        (dict(F1_CONFIG, discount_nodes=[[5.0]]), "discount_nodes[0]"),
        (dict(F1_CONFIG, discount_nodes=[[0.0, 0.02]]), "discount_nodes[0].time"),
        (_with("bond", coupon=math.inf), "bond.coupon"),
        (_with("bond", coupon=10**400), "bond.coupon"),
        (dict(F1_CONFIG, discount_nodes=[[10**400, 0.02]]), "discount_nodes[0].time"),
        (_with("repo", spread=10**400), "repo.spread"),
        (_with("bond", frequency=3), "bond.frequency"),
        (_with("bond", frequency=10**400), "bond.frequency"),
    ],
    ids=["bond-unknown", "repo-unknown", "quotes-unknown", "bond-not-object", "repo-not-object",
         "quotes-not-object", "root-not-object", "quotes-missing-cds-ask", "repo-maturity-zero",
         "repo-forward-price-FAIR", "discount-nodes-out-of-order", "frequency-not-integer",
         "discount-nodes-empty", "discount-node-not-pair", "discount-node-time-zero",
         "coupon-infinite", "coupon-integer-past-float", "discount-node-time-integer-past-float",
         "repo-spread-integer-past-float", "frequency-not-valid", "frequency-integer-past-float"],
)
def test_single_fault_config_names_its_path(config_file, capsys, payload, path):
    code, out, err = run_cli(capsys, "--config", config_file(payload), "price")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")


def test_frequency_error_does_not_echo_the_value(config_file, capsys):
    payload = _with("bond", frequency=10**400)
    code, out, err = run_cli(capsys, "--config", config_file(payload), "price")
    assert (code, out) == (2, "")
    assert err == "error: bond.frequency: must be one of (1, 2, 4, 12)\n"


def test_nan_residual_exits_4(config_file, capsys, monkeypatch):
    import cdsreplica.cli as cli_module

    real = cli_module.replication_report

    def poisoned(*args, **kwargs):
        report = real(*args, **kwargs)
        return type(report)(**{**report.__dict__, "max_abs_residual": float("nan")})

    monkeypatch.setattr(cli_module, "replication_report", poisoned)
    code, _, _ = run_cli(capsys, "--config", config_file(F1_CONFIG), "replicate")
    assert code == 4


@pytest.mark.parametrize("pretty", [(), ("--pretty",)])
def test_non_finite_output_names_its_key(config_file, capsys, monkeypatch, pretty):
    import cdsreplica.cli as cli_module

    real = cli_module.cmd_price
    monkeypatch.setattr(cli_module, "cmd_price", lambda c: {**real(c), "risky_bond_price": math.inf})
    code, out, err = run_cli(capsys, "--config", config_file(F1_CONFIG), *pretty, "price")
    assert code == 3
    assert out == ""
    assert err == "error: risky_bond_price: not a finite number\n"


def test_cli_keeps_every_name_the_benchmark_wraps(monkeypatch):
    # bench/workloads.py routes these names of the cli module through its tracer
    # on every cli-mix run, so each must stay an attribute of cdsreplica.cli
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import cdsreplica.cli as cli_module
    from workloads import CLI_CALLS

    assert CLI_CALLS
    assert [name for name in CLI_CALLS if not hasattr(cli_module, name)] == []


def test_each_public_name_is_declared_once():
    # a name's module lists it in its __all__; the package only re-exports those lists
    modules = [importlib.import_module(f"cdsreplica.{info.name}")
               for info in pkgutil.iter_modules(cdsreplica.__path__)]
    public = cdsreplica.__all__
    assert len(set(public)) == len(public)
    for name in public:
        owners = [m for m in modules if name in getattr(m, "__all__", ())]
        assert len(owners) == 1, name
        value = getattr(cdsreplica, name)
        assert not isinstance(value, ModuleType), name
        assert value is getattr(owners[0], name)
        assert value.__module__ == owners[0].__name__, name  # each is a class or a function
    bound = {name for name, value in vars(cdsreplica).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert bound == set(public)


def _fresh(code: str, *args: str) -> str:
    """stdout of code run with args in a fresh interpreter that imports this package."""
    src = str(Path(cdsreplica.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_cli_import_leaves_numpy_unloaded():
    # only mc_check needs numpy; price, replicate, calibrate and implied-repo never load it
    assert _fresh("import sys, cdsreplica.cli; print('numpy' in sys.modules)").strip() == "False"


_RUN_IN_TURN = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
import cdsreplica.cli as cli
loaded = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    loaded.append([code, "cdsreplica.replication" in sys.modules, "numpy" in sys.modules])
print(json.dumps(loaded))
"""


def _quoted_config(tmp_path) -> Path:
    """F1 with a CDS quote for its curve and quotes for implied-repo: every command runs."""
    quoted = tmp_path / "quoted.json"
    quoted.write_text(json.dumps({
        **{k: v for k, v in F1_CONFIG.items() if k != "hazard_nodes"}, "cds_quote": 0.012,
        "quotes": {"cds_bid": 0.011, "cds_ask": 0.012, "aswc_bid": 0.010, "aswc_ask": 0.013},
    }))
    return quoted


def test_only_replicate_loads_replication_and_only_mc_loads_numpy(tmp_path):
    # the commands run in turn in one fresh interpreter: (exit code, replication
    # loaded, numpy loaded) after each
    quoted, invalid = _quoted_config(tmp_path), tmp_path / "invalid.json"
    invalid.write_text(json.dumps({**F1_CONFIG, "surprise": 1}))
    argvs = [["--config", str(path), *argv] for path, argv in (
        (quoted, ["price"]), (quoted, ["calibrate"]), (quoted, ["implied-repo"]),
        (invalid, ["replicate"]), (quoted, ["replicate"]), (quoted, ["replicate", "--mc", "1000"]),
    )]
    loaded = json.loads(_fresh(_RUN_IN_TURN, json.dumps(argvs)))
    assert loaded == [[0, False, False]] * 3 + [[2, False, False], [0, True, False], [0, True, True]]


_ADDED_IN_TURN = """
import sys
bare = set(sys.modules)  # the interpreter's own, site's hooks included
import io, json
from contextlib import redirect_stderr, redirect_stdout
import cdsreplica.cli as cli
added = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    added.append([code, sorted({"dataclasses", "inspect"} & (set(sys.modules) - bare))])
print(json.dumps(added))
"""


def test_no_command_without_mc_adds_dataclasses_or_inspect(tmp_path):
    # the commands run in turn in one fresh interpreter: (exit code, which of dataclasses
    # and inspect it has added to the bare interpreter's modules) after each
    quoted = _quoted_config(tmp_path)
    argvs = [["--config", str(quoted), command]
             for command in ("price", "calibrate", "implied-repo", "replicate")]
    assert json.loads(_fresh(_ADDED_IN_TURN, json.dumps(argvs))) == [[0, []]] * 4


def test_importing_a_submodule_from_the_package_leaves_replication_unloaded():
    # `from cdsreplica import cli` first asks the package for a `cli` attribute
    code = "import sys; from cdsreplica import cli; print('cdsreplica.replication' in sys.modules)"
    assert _fresh(code).strip() == "False"


_SURFACE = """
import json, sys
import cdsreplica
out = {"loaded": "cdsreplica.replication" in sys.modules, "bound": "mc_check" in vars(cdsreplica)}
step = sys.argv[1]
if step == "star":
    namespace = {}
    exec("from cdsreplica import *", namespace)
    out["names"] = sorted(name for name in namespace if name != "__builtins__")
elif step == "all":
    out["names"] = cdsreplica.__all__
elif step == "dir":
    out["names"] = dir(cdsreplica)
elif step == "attr":
    out["same"] = cdsreplica.mc_check is cdsreplica.replication.mc_check
else:
    try:
        cdsreplica.no_such_name
    except AttributeError as exc:
        out["error"] = str(exc)
print(json.dumps(out))
"""


def test_public_surface_with_replication_loaded_lazily():
    # replication's names resolve on first access; each step starts from a fresh import
    expected = [name for module in ("curves", "errors", "pricers", "replication", "schedule")
                for name in importlib.import_module(f"cdsreplica.{module}").__all__]
    assert len(expected) == 54
    steps = {step: json.loads(_fresh(_SURFACE, step))
             for step in ("star", "all", "dir", "attr", "unknown")}
    assert all(not out.pop("loaded") and not out.pop("bound") for out in steps.values())
    assert steps["star"]["names"] == sorted(expected)
    assert steps["all"]["names"] == expected
    assert set(expected) <= set(steps["dir"]["names"])
    assert steps["attr"]["same"] is True
    assert "'cdsreplica'" in steps["unknown"]["error"]
    assert "no_such_name" in steps["unknown"]["error"]


_WRAPPED_BEFORE_LOAD = """
import io, json, sys
from contextlib import redirect_stdout
import cdsreplica.cli as cli
calls = []

def wrap(name):
    def wrapper(*args):
        calls.append(name)
        from cdsreplica import replication
        return getattr(replication, name)(*args)
    return wrapper

before = "cdsreplica.replication" in sys.modules
cli.mc_check, cli.replication_report = wrap("mc_check"), wrap("replication_report")
with redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([before, code, calls]))
"""


def test_a_wrapper_set_before_replication_loads_is_called(config_file):
    # bench/workloads.traced_cli and monkeypatches set these names on the cli module
    argv = ["--config", config_file(F1_CONFIG), "replicate", "--mc", "1000"]
    assert json.loads(_fresh(_WRAPPED_BEFORE_LOAD, *argv)) == [
        False, 0, ["replication_report", "mc_check"]
    ]


def _price_config(market, repo: dict) -> dict:
    """The CLI config of a fixture market; its curves and schedule rebuild exactly."""
    schedule = market.schedule
    return {
        "discount_nodes": [list(n) for n in zip(market.discount.node_times, market.discount.fwd_rates)],
        "hazard_nodes": [list(n) for n in zip(market.survival.node_times, market.survival.hazards)],
        "bond": {"coupon": market.bond.coupon, "recovery": market.bond.recovery,
                 "maturity": schedule.maturity, "frequency": round(1.0 / schedule.accruals[0])},
        "repo": repo,
    }


def _price_configs():
    yield "f1", F1_CONFIG
    yield "f1-early-repo", _with("repo", maturity=3.0)
    yield "f1-early-repo-forward", _with("repo", maturity=3.0, forward_price=1.01)
    calibrated = {k: v for k, v in F1_CONFIG.items() if k != "hazard_nodes"}
    yield "calibrated-early-repo", dict(calibrated, cds_quote=0.0123, repo={"maturity": 2.0})
    rng = random.Random(5)
    for i in range(12):
        market = random_market(rng)
        dates = market.schedule.dates
        yield f"random-{i}", _price_config(market, {"spread": 0.001})
        if len(dates) > 1:
            repo = {"spread": 0.001, "maturity": dates[rng.randrange(len(dates) - 1)]}
            yield f"random-{i}-early-repo", _price_config(market, repo)


@pytest.mark.parametrize("payload", [c for _, c in _price_configs()],
                         ids=[name for name, _ in _price_configs()])
def test_price_report_equals_the_public_pricers(payload):
    config = parse_config(payload)
    discount, survival, schedule, bond = _build_market(config)
    s_asw = par_asw_spread(discount, survival, schedule, bond).spread
    expected = {
        "riskfree_bond_price": price_riskfree_bond(discount, schedule, bond.coupon),
        "risky_bond_price": price_risky_bond(discount, survival, schedule, bond),
        "risky_floater_price": price_risky_floater(discount, survival, schedule, bond.recovery),
        "annuity_riskfree": annuity_riskfree(discount, schedule),
        "annuity_defaultable": annuity_defaultable(discount, survival, schedule),
        "cds_par_spread": par_cds_spread(discount, survival, schedule, bond.recovery).spread,
        "asw_par_spread": s_asw,
        "cancelable_asw_par_spread": par_cancelable_asw_spread(
            discount, survival, schedule, bond
        ).spread,
        "early_termination_pv": early_termination_pv(discount, survival, schedule, bond, s_asw),
    }
    repo_maturity = config.repo.maturity
    if repo_maturity is not None:
        fair = forward_bond_price(discount, survival, schedule, bond, repo_maturity)
        forward = fair if config.repo.forward_price is None else config.repo.forward_price
        expected["forward_bond_price"] = fair
        expected["generalized_cancelable_asw_par_spread"] = par_cancelable_asw_spread_generalized(
            discount, survival, schedule, bond, repo_maturity, forward
        ).spread
    assert cmd_price(config) == expected


# Values at and past the edges of float64, beside ordinary ones.
_EDGES = (0.0, 1e-300, -1e-300, 5e-324, 1e-9, 0.5, 2.0, 300.0, 700.0, 1e300, 1.7e308, -300.0)
_numbers = st.one_of(st.sampled_from(_EDGES), st.floats(-1.0, 1.0))
_NODE_TIMES = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0)


@st.composite
def _cli_cases(draw):
    """A config and a command drawn over the whole input domain, valid or not."""
    maturity = draw(st.sampled_from((1, 2, 5)))
    frequency = draw(st.sampled_from((1, 2, 4, 12)))

    def nodes(rate):
        times = draw(st.lists(st.sampled_from(_NODE_TIMES), min_size=1, max_size=3, unique=True))
        return [[t, rate(draw(_numbers))] for t in sorted(times)]

    config = {
        "discount_nodes": nodes(float),
        "bond": {"coupon": draw(_numbers),
                 "recovery": draw(st.sampled_from((0.0, 0.4, 0.9, 0.999999))),
                 "maturity": maturity, "frequency": frequency},
        "repo": {"spread": draw(_numbers),
                 "forward_price": draw(st.sampled_from(("fair", 0.5, 1, 1e300)))},
    }
    repo_periods = draw(st.none() | st.integers(1, maturity * frequency))
    if repo_periods is not None:
        config["repo"]["maturity"] = repo_periods / frequency
    if draw(st.booleans()):
        config["hazard_nodes"] = nodes(abs)
    else:
        config["cds_quote"] = abs(draw(_numbers))
    if draw(st.booleans()):
        keys = ("cds_bid", "cds_ask", "aswc_bid", "aswc_ask")
        config["quotes"] = {key: draw(_numbers) for key in keys}
    argv = draw(st.sampled_from((
        ("price",), ("replicate",), ("replicate", "--no-clause"), ("replicate", "--mc", "1000"),
        ("calibrate",), ("implied-repo",),
    )))
    if "--mc" in argv:
        argv += ("--seed", str(draw(st.integers(0, 2**32))))
    return config, argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def contract_config(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "market.json"


@given(case=_cli_cases())
@example(case=(UNDERFLOWED_FORWARD, ("price",)))
@example(case=(OVERFLOWED_MC, ("replicate", "--mc", "1000")))
@settings(max_examples=120, deadline=None)
def test_every_input_ends_in_a_documented_exit(contract_config, case):
    config, argv = case
    contract_config.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--config", str(contract_config), *argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    one_error_line = out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    if code in (2, 3):
        assert one_error_line
    else:
        # exit 4 may also carry a NaN payload, behind the gate that has already failed
        if not (code == 4 and one_error_line):
            assert err == ""
            json.loads(out, parse_constant=_reject_constant)


def _numbers_in(value):
    """Every float in a pricer's result: a number, or a tuple, list, dict or record of them."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (list, tuple, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _numbers_in(item)
    elif hasattr(value, "_fields"):
        yield from _numbers_in(value._asdict())


@given(case=_cli_cases())
@example(case=(_with("bond", coupon=1e308), ("price",)))  # finite coupon terms, overflowing sum
@settings(max_examples=120, deadline=None)
def test_every_public_pricer_returns_finite_numbers_or_a_pricing_error(case):
    config, _ = case
    bond, repo = config["bond"], config["repo"]
    try:  # the documented input checks: a ValueError before any price
        discount = DiscountCurve(*zip(*config["discount_nodes"]))
        schedule = build_schedule(0.0, bond["maturity"], bond["frequency"])
        spec = BondSpec(bond["coupon"], bond["recovery"])
        forward = None if repo["forward_price"] == "fair" else repo["forward_price"]
        repo_spec = cdsreplica.RepoSpec(repo["spread"], repo.get("maturity"), forward)
        if "hazard_nodes" in config:
            survival = SurvivalCurve(*zip(*config["hazard_nodes"]))
        else:
            survival = cdsreplica.calibrate_flat_hazard(
                discount, schedule, config["cds_quote"], spec.recovery
            )
    except ValueError:
        return
    d, s, g, spread = discount, survival, schedule, repo_spec.spread
    repo_maturity = g.maturity if repo_spec.maturity is None else repo_spec.maturity
    forward_price = 1.0 if repo_spec.forward_price is None else repo_spec.forward_price
    pricers = [
        lambda: cdsreplica.forward_fixings(d, g),
        lambda: cdsreplica.default_distribution(s, g),
        lambda: price_riskfree_bond(d, g, spec.coupon),
        lambda: price_risky_bond(d, s, g, spec),
        lambda: price_risky_floater(d, s, g, spec.recovery),
        lambda: cdsreplica.default_leg_pv(d, s, g),
        lambda: annuity_riskfree(d, g),
        lambda: annuity_defaultable(d, s, g),
        lambda: par_cds_spread(d, s, g, spec.recovery),
        lambda: par_asw_spread(d, s, g, spec),
        lambda: par_cancelable_asw_spread(d, s, g, spec),
        lambda: par_cancelable_asw_spread_generalized(d, s, g, spec, repo_maturity, forward_price),
        lambda: cdsreplica.standard_asw_pv(d, s, g, spec, spread),
        lambda: cdsreplica.cancelable_asw_pv(d, s, g, spec, spread),
        lambda: mtm_profile(d, g, spec, spread),
        lambda: early_termination_pv(d, s, g, spec, spread),
        lambda: forward_bond_price(d, s, g, spec, repo_maturity),
        lambda: cdsreplica.replication_report(d, s, g, spec, repo_spec, True),
        lambda: cdsreplica.replication_report(d, s, g, spec, repo_spec, False),
        lambda: cdsreplica.price_sheet(d, s, g, spec, repo_spec),
    ]
    if "quotes" in config:
        pricers.append(lambda: cdsreplica.implied_repo_spreads(*config["quotes"].values()))
    for price in pricers:
        try:
            result = price()
        except cdsreplica.PricingError:
            continue
        assert all(map(math.isfinite, _numbers_in(result)))
    try:  # its non-finite numbers are left to the CLI's emission check
        cdsreplica.mc_check(d, s, g, spec, repo_spec, True, 1000, 0)
    except cdsreplica.PricingError:
        pass
