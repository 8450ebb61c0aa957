"""Online detection of distinct palindromes in a symbol stream.

For every prefix of the input the package reports the maximal palindromic
suffix (per parity and combined), the palindromic-closure length, and whether
a never-before-seen palindrome just appeared, in amortized time logarithmic
in the alphabet size per symbol (linear for alphabets with equality only).
"""

from .automaton import ChildStorageMode, OnlineSuffixAutomaton, PerfCounters
from .detector import DetectorSummary, PalindromeDetector, StepReport
from .manacher import SENTINEL, OnlineManacher

__version__ = "0.1.0"

__all__ = [
    "SENTINEL",
    "OnlineManacher",
    "ChildStorageMode",
    "OnlineSuffixAutomaton",
    "PerfCounters",
    "PalindromeDetector",
    "StepReport",
    "DetectorSummary",
    "__version__",
]
