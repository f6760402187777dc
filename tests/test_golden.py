"""Golden digests: pricing and replication output pinned bit for bit.

Each market's digest is a SHA-256 over the float.hex of every number that
`cmd_price` returns, and of every scenario residual, expected residual, asw
spread, cds spread and forward price of its replication reports. A change
that only reorganizes the arithmetic must leave every digest unchanged; a
difference in the last bit of any number changes it.

To refresh after a deliberate change of the numbers, print `_digest(name)`
for every name in GOLDEN and paste the values.
"""

from __future__ import annotations

import hashlib

import pytest

from cdsreplica.cli import _build_market, cmd_calibrate, cmd_price, parse_config
from cdsreplica.pricers import RepoSpec, forward_bond_price
from cdsreplica.replication import replication_report

DISCOUNT_NODES = [[0.75, 0.012], [2.5, 0.021], [6.0, 0.028], [14.0, 0.034]]
HAZARD_NODES = [[1.3, 0.011], [4.7, 0.024], [9.0, 0.03]]

# name: (maturity, frequency, early repo maturity or None); N = maturity * frequency
MARKETS = {
    "n1": (1.0, 1, None),
    "n40": (10.0, 4, 4.5),
    "n120": (10.0, 12, 6.0),
    "n360": (30.0, 12, 12.5),
}


def _config(maturity: float, frequency: int, hazard: bool = True) -> dict:
    credit = {"hazard_nodes": HAZARD_NODES} if hazard else {"cds_quote": 0.0185}
    return {
        "discount_nodes": DISCOUNT_NODES,
        "bond": {"coupon": 0.047, "recovery": 0.35, "maturity": maturity, "frequency": frequency},
        "repo": {"spread": 0.0013},
        **credit,
    }


def _report_numbers(report) -> list[float]:
    return [
        report.asw_spread, report.cds_spread, report.forward_price, report.expected_residual,
        *(row.residual for row in report.scenarios),
    ]


def _numbers(name: str) -> list[float]:
    maturity, frequency, early = MARKETS[name]
    config = parse_config(_config(maturity, frequency))
    discount, survival, schedule, bond = _build_market(config)
    numbers = list(cmd_price(config).values())
    repos = [RepoSpec(spread=0.0013)]
    for clause in (True, False):
        numbers += _report_numbers(
            replication_report(discount, survival, schedule, bond, repos[0], clause)
        )
    if early is not None:
        fair = forward_bond_price(discount, survival, schedule, bond, early)
        for forward_price in (None, 1.01 * fair):
            repo = RepoSpec(spread=0.0013, maturity=early, forward_price=forward_price)
            numbers += _report_numbers(
                replication_report(discount, survival, schedule, bond, repo, True)
            )
        raw = _config(maturity, frequency)
        raw["repo"] = {"spread": 0.0013, "maturity": early}
        numbers += cmd_price(parse_config(raw)).values()
    quoted = parse_config(_config(maturity, frequency, hazard=False))
    numbers += [v for v in cmd_calibrate(quoted).values() if isinstance(v, float)]
    numbers += cmd_price(quoted).values()
    return numbers


def _digest(name: str) -> str:
    hexes = "\n".join(float(x).hex() for x in _numbers(name))
    return hashlib.sha256(hexes.encode()).hexdigest()[:32]


GOLDEN = {
    "n1": "17dfb0e57f1504bfb7174d618517e08c",
    "n40": "c8b2dba6837e3a0295d9ab476312344f",
    "n120": "83af19836fbab8e9dbefa8f8b60d7685",
    "n360": "040801d8c5552281169b01885f353be2",
}


@pytest.mark.parametrize("name", sorted(MARKETS))
def test_every_number_is_bit_for_bit_the_pinned_one(name):
    assert _digest(name) == GOLDEN[name]
