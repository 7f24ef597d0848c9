"""Min-cost flow substrate (graph model, exact solver, verification)."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "graph": ("FlowNetwork",),
    "ssp": ("InfeasibleFlowError", "MinCostFlowResult", "solve_min_cost_flow"),
    "verify": ("check_flow", "flow_cost", "solve_with_networkx"),
})
