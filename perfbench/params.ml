(* Every fixed input of the four workloads, in one place.  Nothing here
   is chosen by timing: a faster commit runs the same inputs, and only
   the number of ops that fit in --seconds grows.  The seed (--seed)
   picks orders, images and job mixes; it never changes a size. *)

(* Set-ups per run; set-up time is the median of these. *)
let setup_reps = 5

(* Fewest ops a run measures, however long --seconds is: a p90 needs 100
   samples to have ten beyond it (stats.ml).  Only a host several times
   slower than usual makes moccuda-forward, the slowest workload, run
   longer for it. *)
let min_ops = 100

(* The canary (speed.ml): length of the array it sorts, and how often it
   is timed between ops.  At 20000 ints it takes about 6 ms, so a
   reading every 0.25 s costs the op loop under 3% of its time. *)
let canary_len = 20_000
let canary_every_s = 0.25

(* Readings whose median scales one set-up, before and after it. *)
let canary_probe = 3

(* The canary's time on the reference host, in ms: one vCPU of an Intel
   Xeon with little other load on its machine.  Every reported time is
   scaled to a host of this speed. *)
let canary_reference_ms = 6.0

(* rodinia-run: one input size per program, the sizes of the earlier
   scaling table (BENCH_4.json), so an op is 3-12 ms of engine work.
   matmul makes the count odd: with 15 programs in whole passes, the
   nearest-rank p50 and p90 fall mid-way through one program's samples,
   never on the gap between two programs, where a tail sample decides.
   matmul runs at 56 for the same reason: it then joins the band of the
   five slowest programs (about 11-12 ms), and the p90 falls inside it.
   At 64 it takes half as long again as any other program, the p90 falls
   on the edge of that gap, and runs of the same code read it 12 or 16 ms
   by how many ops a slow stretch of the host pushes across. *)
let run_sizes =
  [ ("backprop", 512)
  ; ("bfs", 512)
  ; ("b+tree", 4096)
  ; ("cfd", 4096)
  ; ("hotspot", 64)
  ; ("hotspot3D", 32)
  ; ("lud", 64)
  ; ("myocyte", 4096)
  ; ("nw", 129)
  ; ("particlefilter", 2048)
  ; ("pathfinder", 1024)
  ; ("srad_v1", 48)
  ; ("srad_v2", 32)
  ; ("streamcluster", 8192)
  ; ("matmul", 56)
  ]

(* Team size of every engine launch, and the team size the interpreter
   reference partitions for.  One: the process keeps one domain busy at
   a time.  On this kind of host a second busy domain waits at every
   barrier for whichever core another tenant slowed, which the canary on
   the first cannot see; 2-domain runs of the same code spread by a
   third, 1-domain runs scaled by the canary by a few percent. *)
let domains = 1

(* rodinia-compile: passes of the stage replay (traced runs only). *)
let stage_replay_rounds = 3

(* moccuda-forward: the network of the earlier kernel-tier table
   (BENCH_6.json) at five batch sizes (the table's batch 2 among them),
   in whole passes.  An op's time is about proportional to its batch, and
   each size is at least half as large again as the one before, so a slow
   stretch of the host rarely carries an op into the next level.  Sorted
   by latency, the ops fall into five equal groups: the nearest-rank p50
   is the middle of the third, and the p90 the middle of the fifth, never
   the tail of a group, which is the host's noise more than the code.
   With one batch size the p90 is that tail: its quartiles over ten runs
   of the same code lie 12% of the median apart, against 7% here. *)
let moc_batches = [ 1; 2; 3; 5; 8 ]
let moc_hw = 8
let moc_channels = 8
let moc_classes = 10

(* serve-mixed: one closed-loop client, waiting for its reply before the
   next job, in front of one executor lane, so the client and the lane
   take turns on the host and one domain is busy at a time.  One lane,
   because two lanes compiling at once race on Ir.Value's id counter (a
   plain ref) and degrade their pipelines with "value defined twice". *)
let serve_executors = 1
let serve_queue_cap = 16

(* Sources served from the cache once set-up has compiled them. *)
let serve_hot_set = 16

(* Job mix: each block of this many consecutive ops holds exactly this
   many cold and faulted jobs (18% and 2%), in an order the seed shuffles
   anew for each block; the rest are warm repeats of the hot set.  Exact
   counts, not a die roll per op, so every seed runs the same mix, and
   the memory the cache has grown to by [serve_rss_at_ops] is the same. *)
let serve_block = 50
let serve_cold = 9
let serve_faulted = 1

(* Every this-many-th cold job uses the saxpy template, the others the
   reduction, which takes about four times as long to compile.  Sorted
   by latency, the ops then run warm (80%), cold saxpy (6%), and cold
   reductions with the faulted jobs (14%), so the p90 falls well inside
   the slowest group.  With half and half it falls on the edge between
   the two cold groups and moves by half from run to run. *)
let serve_cold_saxpy_one_in = 3

(* Size argument of every job. *)
let serve_size = 256

(* The service's memory grows with every cold job it caches, so its peak
   RSS is read when this many ops have completed, not at the end of the
   time-bounded loop, where it would grow with the host's speed.  A run
   that completes fewer ops reads it at the end. *)
let serve_rss_at_ops = 2_000

(* Attribution legs of traced runs: direct Supervisor.run_job samples
   per job class, and warm ops with and without a cache directory. *)
let serve_run_job_warm = 200
let serve_run_job_cold = 20
let serve_run_job_faulted = 5
let serve_durable_ops = 400
