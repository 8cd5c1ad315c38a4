"""tracemix: mine block I/O traces for long-range access patterns with
non-parametric temporal count mixtures, then preload a simulated cache."""

from .models import Hyperparams, SMVPParams, mu_from_params, sample_smvp
from .ingest import (BinningConfig, CountVectorSequence, Trace, TraceEvent,
                     aggregate, parse_trace, split_learn_operate)
from .gibbs import (ALL_KINDS, FitConfig, GibbsState, heldout_loglik,
                    init_state, run_gibbs)
from .predict import (AccessMap, DecoderState, FittedModel, build_access_map,
                      decode_path, decoder_observe, decoder_predict_next,
                      estimate_params, new_decoder, predict_blocks)
from .cachesim import (LRUCache, SimReport, capacity_from_trace,
                       simulate_baseline, simulate_preloading)
from .synth import SynthSpec, gen_block_trace, gen_count_sequence

__version__ = "0.1.0"
