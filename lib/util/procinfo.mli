(** Process resource sampling.

    The bulk-ingest path promises bounded peak memory regardless of
    corpus size; that promise is only worth something if it is measured
    where the benchmarks and the serving metrics can see it. This module
    samples the process peak resident set size and republishes it as the
    [bionav_process_peak_rss_bytes] gauge (scraped via the engine's
    [/metrics] rendering).

    On Linux the figure is the kernel's [VmHWM] high-water mark from
    [/proc/self/status], including every malloc'd and mmap'd resident
    page; the kernel records the mark lazily, so a later read can be
    lower, and the largest figure read so far is reported. Where
    [/proc] is unavailable the fallback is the OCaml heap's own
    high-water mark ([Gc.quick_stat].top_heap_words), which undercounts
    non-heap memory but preserves the monotone-peak contract. *)

val peak_rss_bytes : unit -> int
(** Peak resident set size of this process, in bytes. Monotone
    non-decreasing over the process lifetime. Never raises. *)

val source : unit -> [ `Proc_status | `Gc_heap ]
(** Where {!peak_rss_bytes} reads from on this system (decided once, at
    first call). *)

val publish : unit -> unit
(** Refresh the [bionav_process_peak_rss_bytes] gauge from
    {!peak_rss_bytes}. *)
