"""Cost-based layer selection and community detection on multi-layer score networks.

The package root holds the library entry points; every other name is
imported from its own module (``cobalt.io``, ``cobalt.community``, ...).
"""

from .config import PipelineConfig
from .evaluation import missingness_sweep, regression_report
from .pipeline import run_selection

__version__ = "0.1.0"
