"""Hybrid factor graph inference under the conditional-linear-Gaussian scheme.

Exact variable elimination over joint discrete/continuous models: factor
graphs of mode-indexed Gaussian components are eliminated into hybrid Bayes
nets for posterior queries, MAP estimation, sampling, and marginalization,
with hypothesis pruning and dead mode removal for tractability.
"""

from .discrete import (DecisionTree, DiscreteConditional, DiscreteFactor,
                       DiscreteKey, DiscreteLookup, eliminate_discrete_max,
                       eliminate_discrete_sum, enumerate_assignments,
                       multiply_factors, prune_to_top)
from .gaussian import (GaussianConditional, JacobianFactor,
                       UnderconstrainedVariable, VectorValues, back_substitute,
                       eliminate_one, log_normalization_constant, whiten)
from .hybrid import (HybridBayesNet, HybridFactorGraph,
                     HybridGaussianConditional, HybridGaussianFactor,
                     HybridGaussianFactorGraph, HybridNonlinearFactor,
                     HybridValues, NonlinearFactor, conditional_to_factor,
                     discrete_factor_from_leaves)
from .elimination import (bn_evaluate, bn_map, bn_sample, dead_mode_removal,
                          discrete_marginals, eliminate_hybrid_sum,
                          max_product, prune_bayes_net, strong_ordering,
                          sum_product)
from .nonlinear import (BetweenResidual, OptimizationDiverged, OptimizeConfig,
                        Pose2, PriorResidual, between, compose, local,
                        optimize, retract)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
