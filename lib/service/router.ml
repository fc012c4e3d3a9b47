(* Consistent-hash request router.

   Each shard contributes [vnodes] points on a ring of 62-bit hashes; a
   key is owned by the first point clockwise from its own hash. A point's
   position depends only on (shard, vnode) — never on how many shards
   exist — so growing the ring from N to N+1 shards moves exactly the
   keys captured by the new shard's points and no others (the stability
   property test_service checks). *)

(* xorshift-multiply finaliser over 62-bit ints; multipliers stay below
   2^32 so every literal is portable OCaml. *)
let mix x =
  let h = ref ((x + 0x1531_7ACA_DE92) land max_int) in
  h := !h * 0x9E37_79B1 land max_int;
  h := !h lxor (!h lsr 29);
  h := !h * 0x85EB_CA77 land max_int;
  h := !h lxor (!h lsr 31);
  h := !h * 0xC2B2_AE3D land max_int;
  h := !h lxor (!h lsr 30);
  !h

let point ~shard ~vnode = mix ((shard * 0x10_0001) lxor (vnode * 0x9E37_79B9))

type t = {
  shards : int;
  vnodes : int;
  hash : int array;  (* ring positions, ascending *)
  owner : int array;  (* shard owning hash.(i) *)
}

let create ~shards ~vnodes =
  if shards <= 0 then invalid_arg "Router.create: shards";
  if vnodes <= 0 then invalid_arg "Router.create: vnodes";
  let pts = Array.make (shards * vnodes) (0, 0) in
  for s = 0 to shards - 1 do
    for v = 0 to vnodes - 1 do
      pts.((s * vnodes) + v) <- (point ~shard:s ~vnode:v, s)
    done
  done;
  Array.sort compare pts;
  {
    shards;
    vnodes;
    hash = Array.map fst pts;
    owner = Array.map snd pts;
  }

(* Successor lookup: smallest ring point >= h, wrapping to 0. *)
let route t key =
  let h = mix key in
  let n = Array.length t.hash in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.hash.(mid) < h then lo := mid + 1 else hi := mid
  done;
  t.owner.(if !lo = n then 0 else !lo)
