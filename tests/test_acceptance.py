"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 7 (the above/below-par ordering of the break-clause spread against
the standard one) is expected to FAIL: the asserted ordering contradicts the
exact par-spread formulas the rest of the suite verifies. The test states the
claim as given and reports the measured signs; see the companion test
test_premium_bond_lowers_clause_spread in test_pricers.py for the ordering
the formulas actually produce.
"""

import math
import random

from scipy.optimize import brentq

from cdsreplica import (
    BondSpec,
    DiscountCurve,
    RepoSpec,
    SurvivalCurve,
    build_schedule,
    calibrate_flat_hazard,
    default_distribution,
    early_termination_pv,
    forward_fixings,
    mc_check,
    mtm_profile,
    par_asw_spread,
    par_cancelable_asw_spread,
    par_cancelable_asw_spread_generalized,
    par_cds_spread,
    price_risky_bond,
    price_risky_floater,
    replication_report,
    standard_asw_pv,
)
from markets import random_market

SEED = 20260808
N_FIXTURES = 1000


def _fixtures(n=N_FIXTURES, seed=SEED):
    rng = random.Random(seed)
    return [random_market(rng) for _ in range(n)], rng


def _report(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {name} failed: {detail}"


def test_criterion_1_exact_no_arbitrage_identity():
    markets, _ = _fixtures()
    worst = 0.0
    for m in markets:
        cds = par_cds_spread(m.discount, m.survival, m.schedule, m.bond.recovery).spread
        aswc = par_cancelable_asw_spread(m.discount, m.survival, m.schedule, m.bond).spread
        worst = max(worst, abs(cds - aswc))
    _report(
        "1 exact no-arbitrage identity",
        worst < 1e-12,
        f"max |cds - cancelable asw| = {worst:.3e} over {len(markets)} fixtures",
    )


def test_criterion_2_pathwise_replication_with_clause():
    markets, rng = _fixtures()
    worst = 0.0
    for m in markets:
        repo = RepoSpec(spread=rng.uniform(-0.01, 0.02))
        report = replication_report(m.discount, m.survival, m.schedule, m.bond, repo, True)
        worst = max(worst, report.max_abs_residual)
    _report(
        "2 pathwise replication (clause on)",
        worst < 1e-12,
        f"max scenario residual = {worst:.3e} over {len(markets)} fixtures",
    )


def test_criterion_3_leakage_identity_without_clause():
    markets, rng = _fixtures()
    worst = 0.0
    for m in markets:
        repo = RepoSpec(spread=rng.uniform(-0.01, 0.02))
        report = replication_report(m.discount, m.survival, m.schedule, m.bond, repo, False)
        etp = early_termination_pv(
            m.discount, m.survival, m.schedule, m.bond, report.asw_spread
        )
        worst = max(worst, abs(report.expected_residual + etp))
    _report(
        "3 leakage identity (clause off)",
        worst < 1e-12,
        f"max |expected residual + early-termination pv| = {worst:.3e}",
    )


def test_criterion_4_proof_path_equivalence():
    markets, rng = _fixtures(200)
    worst_root = 0.0
    worst_sum = 0.0
    for m in markets:
        def package_pv(s, m=m):
            return standard_asw_pv(
                m.discount, m.survival, m.schedule, m.bond, s
            ) + early_termination_pv(m.discount, m.survival, m.schedule, m.bond, s)

        root = brentq(package_pv, -10.0, 10.0, xtol=1e-14, maxiter=200)
        direct = par_cancelable_asw_spread(m.discount, m.survival, m.schedule, m.bond).spread
        worst_root = max(worst_root, abs(root - direct))

        # close-out double sum versus its per-period collapsed form
        spread = rng.uniform(-0.02, 0.05)
        probs = default_distribution(m.survival, m.schedule).bucket_probs
        profile = mtm_profile(m.discount, m.schedule, m.bond, spread)
        double_sum = -math.fsum(
            p * m.discount.discount_factor(t) * v
            for p, t, v in zip(probs, m.schedule.dates, profile.values)
        )
        eps = forward_fixings(m.discount, m.schedule)
        qs = [m.survival.survival_prob(t) for t in m.schedule.dates]
        collapsed = -math.fsum(
            (-m.bond.coupon + eps[k] + spread)
            * m.schedule.accruals[k]
            * m.discount.discount_factor(t)
            * (1.0 - qs[k])
            for k, t in enumerate(m.schedule.dates)
        )
        etp = early_termination_pv(m.discount, m.survival, m.schedule, m.bond, spread)
        worst_sum = max(worst_sum, abs(etp - double_sum), abs(etp - collapsed))
    ok = worst_root < 1e-10 and worst_sum < 1e-12
    _report(
        "4 proof-path equivalence",
        ok,
        f"max |root - direct spread| = {worst_root:.3e}, "
        f"max double-sum vs collapsed gap = {worst_sum:.3e}",
    )


def test_criterion_5_generalized_repo_maturity():
    markets, rng = _fixtures(300)
    worst_fair = 0.0
    worst_perturbed = 0.0
    worst_reduction = 0.0
    checked = 0
    for m in markets:
        # reduction at the bond maturity must be exact on every fixture
        plain = par_cancelable_asw_spread(m.discount, m.survival, m.schedule, m.bond)
        reduced = par_cancelable_asw_spread_generalized(
            m.discount, m.survival, m.schedule, m.bond, m.schedule.maturity, 1.0
        )
        worst_reduction = max(worst_reduction, abs(reduced.spread - plain.spread))

        if m.schedule.n_periods < 2:
            continue
        checked += 1
        cut = rng.randrange(1, m.schedule.n_periods)
        t_r = m.schedule.dates[cut - 1]
        spread = rng.uniform(-0.01, 0.02)

        fair_repo = RepoSpec(spread=spread, maturity=t_r)
        report = replication_report(m.discount, m.survival, m.schedule, m.bond, fair_repo, True)
        worst_fair = max(worst_fair, abs(report.expected_residual))

        delta = rng.uniform(-0.05, 0.05)
        fair = report.forward_price
        perturbed = RepoSpec(spread=spread, maturity=t_r, forward_price=fair + delta)
        report_p = replication_report(
            m.discount, m.survival, m.schedule, m.bond, perturbed, True
        )
        target = (
            -delta
            * m.discount.discount_factor(t_r)
            * m.survival.survival_prob(t_r)
        )
        worst_perturbed = max(worst_perturbed, abs(report_p.expected_residual - target))
    ok = worst_fair < 1e-12 and worst_perturbed < 1e-12 and worst_reduction == 0.0
    _report(
        "5 generalized repo maturity",
        ok,
        f"fair-forward residual = {worst_fair:.3e}, perturbation gap = {worst_perturbed:.3e}, "
        f"maturity reduction gap = {worst_reduction:.3e} ({checked} early-repo fixtures)",
    )


def test_criterion_6_degenerate_limits():
    worst_riskless = 0.0
    worst_full_recovery = 0.0
    rng = random.Random(SEED + 6)
    cases = [
        (r, coupon, periods, freq)
        for r in (0.0, 0.02, 0.08)
        for coupon in (0.0, 0.05, 0.10)
        for periods, freq in ((1, 1), (7, 2), (40, 4), (40, 1))
    ]
    for r, coupon, periods, freq in cases:
        schedule = build_schedule(0.0, periods / freq, freq)
        discount = DiscountCurve.flat(r)

        riskless = SurvivalCurve.flat(0.0)
        bond = BondSpec(coupon=coupon, recovery=rng.uniform(0.0, 0.9))
        for value in (
            par_asw_spread(discount, riskless, schedule, bond).spread,
            par_cancelable_asw_spread(discount, riskless, schedule, bond).spread,
            par_cds_spread(discount, riskless, schedule, bond.recovery).spread,
            price_risky_floater(discount, riskless, schedule, bond.recovery) - 1.0,
        ):
            worst_riskless = max(worst_riskless, abs(value))

        survival = SurvivalCurve.flat(rng.uniform(0.005, 0.10))
        full = BondSpec(coupon=coupon, recovery=1.0)
        for value in (
            par_cancelable_asw_spread(discount, survival, schedule, full).spread,
            par_cds_spread(discount, survival, schedule, 1.0).spread,
        ):
            worst_full_recovery = max(worst_full_recovery, abs(value))
    ok = worst_riskless < 1e-14 and worst_full_recovery < 1e-14
    _report(
        "6 degenerate limits",
        ok,
        f"riskless max = {worst_riskless:.3e}, full-recovery max = {worst_full_recovery:.3e}",
    )


def _ordering_fixtures(premium, count=120, seed=SEED + 7):
    """Markets whose bond prices sit clearly above (premium) or below par."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        frequency = rng.choice((1, 2, 4))
        periods = rng.randint(2, 40)
        schedule = build_schedule(0.0, periods / frequency, frequency)
        discount = DiscountCurve.flat(rng.uniform(0.0, 0.04) if premium else rng.uniform(0.03, 0.08))
        survival = SurvivalCurve.flat(rng.uniform(0.005, 0.10))
        coupon = rng.uniform(0.06, 0.10) if premium else rng.uniform(0.0, 0.01)
        bond = BondSpec(coupon=coupon, recovery=rng.uniform(0.0, 0.9))
        b0 = price_risky_bond(discount, survival, schedule, bond)
        if premium and b0 > 1.0 + 1e-3:
            out.append((discount, survival, schedule, bond))
        elif not premium and b0 < 1.0 - 1e-3:
            out.append((discount, survival, schedule, bond))
    return out


def test_criterion_7_above_below_par_ordering():
    gaps_above = []
    for discount, survival, schedule, bond in _ordering_fixtures(premium=True):
        s_asw = par_asw_spread(discount, survival, schedule, bond).spread
        s_aswc = par_cancelable_asw_spread(discount, survival, schedule, bond).spread
        gaps_above.append(s_aswc - s_asw)
    gaps_below = []
    for discount, survival, schedule, bond in _ordering_fixtures(premium=False):
        s_asw = par_asw_spread(discount, survival, schedule, bond).spread
        s_aswc = par_cancelable_asw_spread(discount, survival, schedule, bond).spread
        gaps_below.append(s_aswc - s_asw)
    ok = all(g > 0.0 for g in gaps_above) and all(g < 0.0 for g in gaps_below)
    _report(
        "7 above/below-par ordering",
        ok,
        f"above par: {sum(g > 0 for g in gaps_above)}/{len(gaps_above)} gaps positive "
        f"(range [{min(gaps_above):.2e}, {max(gaps_above):.2e}]); "
        f"below par: {sum(g < 0 for g in gaps_below)}/{len(gaps_below)} gaps negative "
        f"(range [{min(gaps_below):.2e}, {max(gaps_below):.2e}])",
    )


def test_criterion_7_gap_is_the_forfeited_close_out():
    """The exact identity behind the signs criterion 7 measures.

    s_aswc - s_asw = -ETP(s_asw) / A_def, with ETP the early-termination PV and
    A_def the defaultable annuity: the gap has the sign of the expected
    mark-to-market the holder gives up at default.
    """
    markets = [m for premium in (True, False) for m in _ordering_fixtures(premium)]
    markets += [tuple(m) for m in _fixtures()[0]]
    gaps = []
    for discount, survival, schedule, bond in markets:
        s_asw = par_asw_spread(discount, survival, schedule, bond).spread
        aswc = par_cancelable_asw_spread(discount, survival, schedule, bond)
        etp = early_termination_pv(discount, survival, schedule, bond, s_asw)
        gaps.append(abs(aswc.spread - s_asw + etp / aswc.annuity))
    _report(
        "7 gap identity",
        all(g < 1e-14 for g in gaps),
        f"max |s_aswc - s_asw + ETP(s_asw) / A_def| = {max(gaps):.3e} "
        f"over {len(gaps)} fixtures",
    )


def test_criterion_8_calibration_and_monte_carlo():
    discount = DiscountCurve.flat(0.02)
    schedule = build_schedule(0.0, 5.0, 1)
    worst = 0.0
    for hazard in (1e-4, 1e-3, 0.01, 0.05, 0.2):
        quote = par_cds_spread(discount, SurvivalCurve.flat(hazard), schedule, 0.4).spread
        fitted = calibrate_flat_hazard(discount, schedule, quote, 0.4)
        worst = max(worst, abs(fitted.hazards[0] - hazard))

    survival = SurvivalCurve.flat(0.02)
    bond = BondSpec(coupon=0.05, recovery=0.4)
    repo = RepoSpec(spread=0.001)
    first = mc_check(discount, survival, schedule, bond, repo, False, 100_000, seed=7)
    second = mc_check(discount, survival, schedule, bond, repo, False, 100_000, seed=7)
    report = replication_report(discount, survival, schedule, bond, repo, False)
    analytic = -early_termination_pv(discount, survival, schedule, bond, report.asw_spread)
    z = abs(first.estimate - analytic) / first.std_error
    ok = worst < 1e-10 and z <= 3.0 and first == second
    _report(
        "8 calibration round-trip and Monte Carlo",
        ok,
        f"max hazard error = {worst:.3e}, mc z-score = {z:.2f}, "
        f"bitwise repeatable = {first == second}",
    )
