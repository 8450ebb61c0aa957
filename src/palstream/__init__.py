"""Online detection of distinct palindromes in a symbol stream.

For every prefix of the input the package reports the maximal palindromic
suffix (per parity and combined), the palindromic-closure length, and whether
a never-before-seen palindrome just appeared.  Per symbol it makes amortized
O(log sigma) symbol comparisons over an ordered alphabet of size sigma and
O(sigma) over one with equality only.  Ordered-mode time also pays an O(sigma)
list insert per new transition, so it grows faster than the comparisons once
the alphabet is large.
"""

from .automaton import ChildStorageMode, OnlineSuffixAutomaton, PerfCounters
from .detector import DetectorSummary, PalindromeDetector, StepReport
from .manacher import OnlineManacher

__version__ = "0.1.0"

__all__ = [
    "OnlineManacher",
    "ChildStorageMode",
    "OnlineSuffixAutomaton",
    "PerfCounters",
    "PalindromeDetector",
    "StepReport",
    "DetectorSummary",
    "__version__",
]
