"""Kekulé states and Kekulé cells of finite undirected graphs.

Core operations: state enumeration and cells (kekule), the GF(2) semi-Kekulé
theory (semikekule), abstract cell algebra and small-cell classification
(cells, classify), cell-preserving rewrites (transform), omniconjugation
(omni), and soliton-driven switching simulation (switch, builtins).
"""

from .cells import (Assignment, Cell, channel, channel_decomposition, diameter,
                    flex, flexible_ports, hamming, is_flexible, is_open,
                    parity_space, translate)
from .classify import Classification, classify_cell, diameter4_template, star_graph
from .errors import CellError, KekulecError, ParseError, SwitchError
from .graph import (CurveComponent, Edge, EdgeSubset, Graph, GraphDocument,
                    connected_components, curve_components, cycle_basis,
                    cycle_rank, dumps_document, is_connected, is_curve,
                    parse_document, parse_graph, signature, to_document)
from .kekule import (alternating_curves, alternating_path, apply_curve,
                     enumerate_kekule_states, has_kekule_state_for,
                     is_alternating, is_kekule_state, is_perfect_matching,
                     kekule_cell, kekule_states_for, port_assignment,
                     state_difference)
from .omni import (OmniVerdict, is_omniconjugated, make_A, make_B, make_delta,
                   pendant_core_is_complete, realized_assignment_count)
from .semikekule import (enumerate_semi_kekule, hsk_basis, is_semi_kekule,
                         kekule_states_via_span, solve_semi_kekule)
from .switch import FunctionalCell, GateReport, TraceStep, verify_gate
from .builtins import Builtin, builtin, builtin_names
from .transform import (RewriteReport, add_internal_edge, attach_handles,
                        flexible_subgraph, glue_ports, merge_node, split_node,
                        subdivide_port_edge, translate_graph)

__version__ = "0.1.0"
