"""Desk-scale laboratory for memory-replay class-incremental learning.

Phase-protocol datasets, bounded exemplar replay, class-balancing logit
offsets with momentum-tracked training status, closed-form loss heads that
return their gradient at the logits, an incremental trainer over a numpy
ReLU classifier, and diagnostics for the destruction-reconstruction dynamics
of old knowledge. ``bdrlab.tensor`` is a small reverse-mode tape kept as the
independent reference for those gradients. Import names from their modules.
"""

# no run imports the tape, but perfbench patches ``bdrlab.tensor.Tensor.backward``
# by attribute path from the package
from . import tensor

__version__ = "0.1.0"
