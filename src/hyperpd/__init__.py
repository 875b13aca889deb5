"""Projective dimension and Betti numbers of square-free monomial
ideals, computed by reducing the ideal's dual hypergraph and checked
against lattice homology."""
