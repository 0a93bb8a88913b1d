"""Client load: transactions, blocks, and per-process proposal queues.

Paper §3 assumes every process atomically broadcasts infinitely many blocks
of transactions; §6.2's amortized analysis batches Θ(n) or Θ(n log n)
transactions per block. :class:`repro.mempool.blocks.BlockSource` models
both: explicitly enqueued blocks (the ``a_bcast`` path) take priority, and an
optional synthetic generator keeps the queue non-empty forever.
"""
