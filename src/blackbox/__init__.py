"""Exact compositional circuit analysis over the rational-function field Q(s).

The exports are what the CLI verbs, the benchmark, the scripts and the
acceptance suite call; each module's docstring says why a name with no verb
behind it stays.
"""

from .behavior import (
    as_impedance,
    blackbox,
    blackbox_categorical,
    blackbox_fast,
    cospan_relation,
    equivalent,
    oracle_behavior,
    port_relation,
    to_dirichlet_cospan,
    to_lagr_cospan,
)
from .circuits import (
    Circuit,
    LabelledGraph,
    circuit,
    compose_circuits,
    dagger_circuit,
    identity_circuit,
    tensor_circuits,
)
from .corel import (
    Corelation,
    compose_corelations,
    corel_from_cospan,
    identity_corelation,
    tensor_corelations,
)
from .dirichlet import (
    DirichletForm,
    compose_forms,
    eliminate_node,
    extended_power_functional,
    gradient,
    power_functional,
    pushforward_form,
)
from .field import (
    ONE,
    ZERO,
    RatFunc,
    from_rat,
    impedance,
    is_positive_sampled,
    parse_ratfunc,
    s,
)
from .lagrel import (
    LagrangianRelation,
    Subspace,
    compose_relations,
    dagger_relation,
    graph_of_differential,
    identity_relation,
    symplectify,
    tensor_relations,
    twist,
)
from .netlist import parse_netlist, print_netlist
