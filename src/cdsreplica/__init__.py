"""Pricing and replication of a stylized CDS by a repo-financed bond plus
a break-clause asset swap.

The library prices every instrument in closed form on a shared payment grid,
and verifies the replication claim cashflow-by-cashflow with an exhaustive
default-scenario oracle plus a seeded Monte Carlo cross-check.
"""

from . import curves, errors, pricers, replication, schedule
from .curves import *
from .errors import *
from .pricers import *
from .replication import *
from .schedule import *

__version__ = "0.1.0"

__all__ = []
__all__ += curves.__all__
__all__ += errors.__all__
__all__ += pricers.__all__
__all__ += replication.__all__
__all__ += schedule.__all__
