"""ebench: entanglement-breaking test conditions from entanglement witnesses.

Converts separability witnesses into benchmark conditions for quantum
channels and trace-decreasing operations, evaluates them on user-specified
channels, and cross-validates ensemble-based values against direct
Choi-state expectations.
"""

__version__ = "0.1.0"

from .fock import (DensityOperator, FockSpace, ModeOperator, Operator, Space,
                   StateVector, basis_ket, coherent_ket, coherent_kets,
                   expectation, max_entangled_ket, mode_operators,
                   number_operator, partial_trace, suggest_cutoff, tensor,
                   two_mode_squeezed_ket)
from .quadrature import QuadratureGrid
from .channels import (Channel, ChannelSpec, ChoiFormChannel, ChoiState,
                       KrausChannel, MeasurePrepareChannel, build_channel,
                       channel_choi_matrix, choi_state, filter_scale,
                       heterodyne_mp, identity_channel, kraus_completeness,
                       kraus_explicit, parse_channel_spec, pure_loss,
                       qudit_depolarizing, rank_k_random, x_measure_prepare,
                       z_measure_prepare)
from .witness import (CoherentIntegralWitness, ConsistencyReport, EBValue,
                      EnsembleMember, EvaluationError, InputEnsemble,
                      KetEnsemble, NonlinearCondition, QuditPairsWitness,
                      TermsWitness, WitnessTerm, antinormal_reorder,
                      choi_witness_expectation, consistency_check, eb_value,
                      ensemble_from_state, nonlinear_eb_value, witness_symbol)
from .cv import (FidelityBenchReport, GaussianBenchParams, benchmark_threshold,
                 fidelity_benchmark, fidelity_witness, gaussian_coherent_ensemble,
                 optimal_heterodyne_gain, witness14_matrix)
from .dv import (GeneralizedPauli, QuditSystem, SchmidtBenchReport,
                 finite_dim_conversion, g_value, gen_pauli, max_entangled_state,
                 mub_bases, schmidt_benchmark, schmidt_witness_matrix,
                 schmidt_witness_pairs)
