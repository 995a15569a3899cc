"""Case-study applications from the paper's evaluation (§5)."""

from repro.apps.bank import (
    CreditManagerImpl,
    bank_policy,
    purchase_session_brmi,
    purchase_session_rmi,
)
from repro.apps.fileserver import (
    fetch_files_brmi,
    fetch_files_rmi,
    list_directory_brmi,
    list_directory_rmi,
    make_directory,
    make_tree,
    walk_tree_brmi,
    walk_tree_rmi,
)
from repro.apps.linkedlist import (
    build_list,
    traverse_brmi,
    traverse_brmi_unbatched,
    traverse_rmi,
)
from repro.apps.noop import NoOpImpl, run_noop_brmi, run_noop_rmi
from repro.apps.simulation import (
    BalancerImpl,
    SimulationImpl,
    run_simulation_brmi,
    run_simulation_rmi,
)
from repro.apps.translator import (
    TranslatorImpl,
    UnknownWordError,
    Word,
    translate_brmi,
    translate_rmi,
)

__all__ = [
    "BalancerImpl",
    "bank_policy",
    "build_list",
    "CreditManagerImpl",
    "fetch_files_brmi",
    "fetch_files_rmi",
    "list_directory_brmi",
    "list_directory_rmi",
    "make_directory",
    "make_tree",
    "walk_tree_brmi",
    "walk_tree_rmi",
    "NoOpImpl",
    "purchase_session_brmi",
    "purchase_session_rmi",
    "run_noop_brmi",
    "run_noop_rmi",
    "run_simulation_brmi",
    "run_simulation_rmi",
    "SimulationImpl",
    "translate_brmi",
    "translate_rmi",
    "TranslatorImpl",
    "traverse_brmi",
    "traverse_brmi_unbatched",
    "traverse_rmi",
    "UnknownWordError",
    "Word",
]
