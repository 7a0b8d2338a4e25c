(** Fingerprint-keyed caching of the analysis pipeline's expensive
    stages.

    Keys are opaque strings built by {!Pipeline} from the deck's
    SHA-256 fingerprint plus the options in force, so an edited deck or
    a changed option is simply a different key — content addressing is
    the whole invalidation story. Four families are memoized
    independently: prepared probes (MNA compile + DC operating point),
    compiled {!Engine.Kernel} solve programs (each carrying its
    {!Engine.Ac_plan} symbolic analysis), complete result sets with
    their run manifests, and static signal-flow reports
    ({!Staticanalysis.Report.t}). A warm [result] hit therefore costs
    zero DC solves and zero symbolic analyses — the serve smoke test
    asserts exactly that from the [dcop.solves] / [acplan.symbolic]
    counters — and a warm [kernel] hit costs zero kernel compiles
    ([kernel.compiles] stays flat).

    Hit/miss/eviction telemetry flows through always-on
    {!Obs.Counter}s: [cache.op.hits], [cache.op.misses],
    [cache.op.evictions], and likewise for the [kernel], [result] and
    [sfg] families.

    All operations are safe to call concurrently (the serve daemon
    calls in from {!Parallel.Pool} workers). The compute thunk runs
    outside the lock: two simultaneous cold requests for one key may
    both compute, and the later insert wins — equivalent values, so
    only duplicated work, never a wrong answer. *)

type t

type result_entry = {
  results : Stability.Analysis.node_result list;
  manifest : Manifest.t;
}

val default_capacity : int
(** Per-family LRU capacity when [create] is not told otherwise (64). *)

val create : ?capacity:int -> unit -> t
(** A fresh cache; [capacity] bounds each family separately, evicting
    least-recently-used entries on insert. *)

val global : unit -> t
(** The process-wide cache shared by CLI one-shots and {!Session}s. The
    serve daemon uses it too, so a daemon and in-process sessions agree
    on warm state. *)

(** Each accessor returns the cached or computed value plus a hit flag
    ([true] = served from cache, compute not called). *)

val op :
  t -> key:string -> (unit -> Stability.Probe.t) ->
  Stability.Probe.t * bool

val kernel :
  t -> key:string -> (unit -> Engine.Kernel.t) -> Engine.Kernel.t * bool
(** Compiled kernel programs, keyed by fingerprint and DC options; the
    kernel carries its plan, so a hit also skips the symbolic
    analysis. *)

val result :
  t -> key:string -> (unit -> result_entry) -> result_entry * bool

val sfg :
  t -> key:string -> (unit -> Staticanalysis.Report.t) ->
  Staticanalysis.Report.t * bool
(** Static signal-flow reports: loop enumeration and probe cover are
    pure functions of the deck text and the cycle bounds, so a warm hit
    is a zero-rebuild answer — the [sfg.builds] counter stays flat. *)

val clear : t -> unit

val capacity : t -> int
(** The per-family LRU bound this cache was created with. *)

type family_stats = {
  family : string;
  (** ["op"], ["kernel"], ["result"] or ["sfg"] *)
  entries : int;       (** live entries right now *)
  capacity : int;      (** LRU bound (same for every family) *)
  hits : int;
  misses : int;
  evictions : int;
}

val stats : t -> family_stats list
(** One record per family, in declaration order. Hit/miss/eviction
    counts read the process-global counters, so they aggregate across
    caches that share the registry. *)

val sample_gauges : t -> unit
(** Publish each family's occupancy into the [Obs.Gauge] registry as
    [cache.<family>.entries] and [cache.<family>.capacity] — called by
    the serve daemon's background tick so Prometheus exposition and
    [acstab top] see live occupancy without touching the cache lock on
    every scrape. *)
