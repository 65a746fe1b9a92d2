"""boundforge: a miniature finite-domain kernel, a catalog of proven feature
bounds for partitions and binary sequences, and the incremental selection of
the most-filtering bounds, all audited by an exhaustive brute-force oracle.

The package root exports nothing; import the modules (the README lists
each one's entry points)."""
