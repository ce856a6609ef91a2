"""Power models for switches, cables and physical machines.

A switch draws a static wattage plus a per-port term; an unused switch
is powered off entirely. Each active cable keeps one port busy on both
of its end switches. A PM draws its idle wattage plus a load-linear
term up to its peak, with load measured as CPU core utilization; PMs
hosting no instances are off.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .topology import FunctionType, Link, PowerParams


def switch_power(params: PowerParams, active_ports: int) -> float:
    """Wattage of one powered switch with the given number of busy ports."""
    if active_ports < 0:
        raise ValueError("negative port count")
    return params.switch_static_w + params.port_w * active_ports


def pm_power(params: PowerParams, utilization: float) -> float:
    """Wattage of one powered PM at the given CPU utilization in [0, 1]."""
    if not 0.0 <= utilization <= 1.0:
        raise ValueError("utilization %r outside [0, 1]" % utilization)
    return params.pm_idle_w + (params.pm_max_w - params.pm_idle_w) * utilization


def pm_load_slope(params: PowerParams, cores: int, pm_cores: int) -> float:
    """Wattage that cores more in use add to a powered PM of pm_cores."""
    return (params.pm_max_w - params.pm_idle_w) * (cores / pm_cores)


def network_power(state) -> float:
    """Total switch-side power: static wattage per active switch plus two
    busy ports per active cable."""
    params = state.graph.power
    switches = sum(1 for n in state.graph.nodes if state.switch_active(n.id))
    cables = sum(1 for c in state.graph.cables() if state.cable_active(*c))
    return params.switch_static_w * switches + 2.0 * params.port_w * cables


def pm_power_total(state) -> float:
    params = state.graph.power
    total = 0.0
    for node in state.graph.nodes:
        if state.pm_active(node.id):
            total += pm_power(params, state.cpu_utilization(node.id))
    return total


def total_power(state) -> float:
    return network_power(state) + pm_power_total(state)


def incremental_cost(state, node: int, instance_id: Optional[int],
                     function: FunctionType, links: Iterable[Link]) -> float:
    """Power delta of serving one more chain position.

    The position runs on `node`, either on an existing instance
    (instance_id set, no PM delta) or on a new instance; `links` is the
    traffic's physical route for this hop. Equals the total_power
    difference of a hypothetical commit, without mutating anything.
    """
    params = state.graph.power
    cables = {l.cable for l in links}
    new_cables = [c for c in cables if not state.cable_active(*c)]
    new_switches = {s for c in new_cables for s in c if not state.switch_active(s)}
    delta = (params.switch_static_w * len(new_switches)
             + 2.0 * params.port_w * len(new_cables))
    return delta + incremental_pm_cost(state, node, instance_id, function)


def incremental_pm_cost(state, node: int, instance_id: Optional[int],
                        function: FunctionType) -> float:
    """The PM part of incremental_cost, i.e. its value with no links:
    nothing on an existing instance, the load slope of one more instance
    on a powered PM, idle plus slope on a PM that must be powered on."""
    if instance_id is not None:
        return 0.0
    params = state.graph.power
    slope = pm_load_slope(params, function.cores,
                          state.graph.node(node).pm.cores)
    return slope if state.pm_active(node) else params.pm_idle_w + slope
