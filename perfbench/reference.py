"""A fixed computation that tracks the machine's current speed.

It never touches chartab, so a change to chartab cannot move it.  ``run.py``
times this script as a fresh process, interpreter start and then `work`, as
the speed reference of the workloads that start a process per job.
"""

from fractions import Fraction


def work(steps: int = 3000) -> Fraction:
    """Fraction and dict operations, the kinds of work chartab does."""
    total, counts = Fraction(0), {}
    for i in range(steps):
        counts[i % 251] = counts.get(i % 251, 0) + i
        total += Fraction(i % 7, 11)
    return total


if __name__ == "__main__":
    work()
