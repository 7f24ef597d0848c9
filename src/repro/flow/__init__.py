"""Min-cost flow substrate (the exact solver OPT's labels come from)."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "ssp": ("InfeasibleFlowError", "MinCostFlowResult", "solve_min_cost_flow"),
})
