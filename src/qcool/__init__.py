"""Measurement-based cooling of oscillator networks with a qudit regulator."""

from .errors import (ConfigError, ConstructionError, QcoolError,
                     SearchFailureError, TruncationError)
from .states import (DSTParams, depolarized_qudit, displaced_squeezed_thermal,
                     displacement_op, dst_mean_energy, squeezing_op)
from .hamiltonians import CouplingParams, Topology
from .protocol import (ProtocolConfig, ProtocolTrace, ReportRule, SweepRecord,
                       EnergyRecord, default_cycle_time, effective_lambdas,
                       max_coolable_nbar, report_cycles, run_protocol,
                       sweep_dimension, sweep_energy, vacuum_modes)
from .opttime import (OptTimeResult, VacuumModes, local_optima, solve_topt,
                      vacuum_lambda)
from .gaussian import (OneShotStack, dst_moments, oneshot_stack,
                       symplectic_from_hamiltonian)
from .stateprep import (PrepResult, conditional_displacement, hadamard_qudit,
                        make_cat, make_hybrid_entangled, make_noon,
                        make_odd_cat, parity_expectation, subspace_rotation)

__version__ = "0.1.0"
