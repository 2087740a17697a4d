"""weaklearn: desk-scale weakly supervised visual feature learning.

A small numpy toolkit that trains image feature networks against caption
words as weak multi-label supervision, with sampled-target softmax losses,
partition-function bound checks, and word-embedding style evaluations.
"""

__version__ = "0.1.0"

from .data import TENSOR_FORMAT
from .model import CHECKPOINT_FORMAT
from .textpipe import DICT_FORMAT
