(** Consistent-hash routing of keys to shards.

    A point's ring position depends only on its (shard, vnode) pair, so
    adding shard N+1 to an N-shard ring moves only the keys the new
    shard's points capture — roughly K/(N+1) of them — and every moved
    key lands on the new shard. *)

type t

val create : shards:int -> vnodes:int -> t
(** @raise Invalid_argument if either count is non-positive. *)

val route : t -> int -> int
(** Owning shard of a key, in [0, shards). Pure and deterministic. *)

val mix : int -> int
(** The 62-bit hash finaliser underneath the ring (exposed for tests). *)
