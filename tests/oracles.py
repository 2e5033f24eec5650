"""Brute-force oracles for the census, on plain letter tuples."""


def swap_orbit(letters: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Every word reached from ``letters`` by any rotation and by any swap of
    two neighbouring letters whose indices differ by at least two."""
    orbit = {letters}
    stack = [letters]
    while stack:
        word = stack.pop()
        reached = [word[r:] + word[:r] for r in range(1, len(word))]
        reached += [
            word[:q] + (word[q + 1], word[q]) + word[q + 2 :]
            for q in range(len(word) - 1)
            if abs(word[q] - word[q + 1]) >= 2
        ]
        for other in reached:
            if other not in orbit:
                orbit.add(other)
                stack.append(other)
    return orbit


class OrbitLeast(dict):
    """Maps letters to the least word of their :func:`swap_orbit`, closing
    each orbit once for all its members."""

    def __missing__(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        orbit = swap_orbit(letters)
        least = min(orbit)
        self.update(dict.fromkeys(orbit, least))
        return least
