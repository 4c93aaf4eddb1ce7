"""Matrix-free alternating-direction solvers for l1 minimization.

Two solver families (primal and dual splitting) covering basis pursuit and
its denoising, penalized, and l1-fidelity variants, with nonnegative and
weighted versions; proximal-gradient baselines; and a synthetic-experiment
harness with a command-line front end.
"""

__version__ = "0.1.0"

from .errors import (AdlError, ConfigError, DimensionMismatchError,
                     DivergenceError, FileFormatError, StepSizeError)
from .harness import (ExperimentConfig, ExperimentResult, MODEL_FAMILIES,
                      NoiseSpec, PARAM_GRID, PROTOCOLS, ProblemInstance,
                      RACE_GRID, RACE_GRID_BP, gen_spikes, make_instance,
                      model_for_param, run_protocol)
from .io import (canonical_json, config_hash, read_matrix, read_matrix_csv,
                 read_vector, read_vector_csv, write_matrix, write_vector,
                 write_vector_csv)
from .models import Diagnostics, ModelSpec, compute_res, l1_norm, relchg, relerr
from .operators import (AugmentedOperator, DenseOperator,
                        PartialDCTOperator, PartialWalshHadamardOperator,
                        SensingOperator, estimate_lambda_max, fwht,
                        make_operator)
from .prox import (project_halfspace, project_l2_ball, project_linf_ball,
                   shrink, shrink_l2)
from .solvers import (SOLVERS, DadmParams, DadmState, FistaState, PadmParams,
                      PadmState, RunRecord, SolverOptions, dadm_solve,
                      dadm_step, fista_solve, ist_solve, padm_solve, padm_step,
                      prox_grad_step, solve)
