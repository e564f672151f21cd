"""Secret key rate simulator for a RIS-assisted THz MIMO CV-QKD link."""

from .channel import (ArrayGeometry, ChannelFactors, ChannelTriple, PathSpec,
                      RisGeometry, Scenario, array_response, build_channels,
                      channel_factors, cores_at, line_of_sight_path, ris_response)
from .config import default_scenario, load_scenario
from .decomposition import (BranchParams, BranchSet, SvdBundle, branch_params,
                            branch_set, decompose, make_branch)
from .experiments import (PhaseOptimum, SweepResult, SweepSpec, SweepVariable,
                          evaluate_scenario, max_secure_distance,
                          no_ris_baseline, optimal_phase, run_sweep)
from .qkd import (AncillaCase, AttackModel, BranchRecord, NoiseModel,
                  NumericDomainError, PairCov, SkrReport, holevo_h,
                  thermal_occupation, total_skr)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
