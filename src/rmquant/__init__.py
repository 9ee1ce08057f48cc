"""Recursive marginal quantization of scalar SDEs with grid-based pricers."""

from .affine_schemes import (AffineUpdate, UpdateBatch, euler_update,
                             euler_updates, milstein_update, milstein_updates,
                             weak2_update, weak2_updates)
from .distributions import (Ncx2Params, ScalarDistribution, ncx2_1_funcs,
                            reflect_funcs, std_normal_funcs)
from .oracles import (FdConfig, McConfig, black_scholes, cn_bermudan,
                      empirical_cdf)
from .pricing import (BarrierSpec, VanillaPayoff, barrier_up_out_price,
                      bermudan_price, european_price)
from .rmq_engine import (ABSORBING, FREE, REFLECTING, CodewordDomainError,
                         QuantizationSequence, RmqError, Schedule,
                         implied_marginal_cdf, load_sequence_json, rmq_run,
                         rmq_steps)
from .sde_models import (CevParams, GbmParams, SdeModel, cev_model,
                         gbm_exact_marginal, gbm_model)
from .vq1d import (Quantizer, RegionBounds, distortion, distortion_gradient,
                   distortion_hessian, initial_guess, newton_quantize,
                   region_boundaries)

__version__ = "0.1.0"
