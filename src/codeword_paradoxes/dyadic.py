"""The Gaussian integer re + im*i as the (re, im) pair `inner` returns.

Only perfbench's `kernels` mode imports this, to compare
`inner(v, w) != Dyadic(s * norm2)`; no module of the package does.  It goes
when the benchmark next changes (ROADMAP item 1).
"""


def Dyadic(re: int, im: int = 0) -> tuple[int, int]:
    return (re, im)
