"""Related-work comparison baselines (paper section V) that only the benches run."""
