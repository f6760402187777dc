"""Pricing and replication of a stylized CDS by a repo-financed bond plus
a break-clause asset swap.

The library prices every instrument in closed form on a shared payment grid,
and verifies the replication claim cashflow-by-cashflow with an exhaustive
default-scenario oracle plus a seeded Monte Carlo cross-check.

`replication` loads on first use (PEP 562): its public names, the submodule
itself and `__all__` resolve through the module `__getattr__` below, so that
`cdsreplica price`, `calibrate` and `implied-repo` never import it.
"""

from . import curves, errors, pricers, schedule
from .curves import *
from .errors import *
from .pricers import *
from .schedule import *

__version__ = "0.1.0"


def __getattr__(name: str):
    """Load `replication` and bind name, one of its public names, `replication` or
    `__all__`, into the package; any other name raises AttributeError."""
    # import_module, not `from . import replication`: that asks this __getattr__ again
    from importlib import import_module

    replication = import_module(f"{__name__}.replication")
    if name == "__all__":
        value = [*curves.__all__, *errors.__all__, *pricers.__all__, *replication.__all__,
                 *schedule.__all__]
    elif name == "replication":
        value = replication
    elif name in replication.__all__:
        value = getattr(replication, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *(globals().get("__all__") or __getattr__("__all__"))})
