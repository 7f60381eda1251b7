"""Output metrics (paper section 4.1).

The important output parameters are the **mean frame delivery interval**
``d`` for CBR/VBR traffic, its **standard deviation** ``sigma_d``
(``d = 33 ms`` with ``sigma_d = 0`` is jitter-free 30 frames/sec
delivery), and the **average latency** of best-effort messages.
"""
