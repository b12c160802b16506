"""SEA end-to-end benchmark: one workload per process, see ``run.py``."""
