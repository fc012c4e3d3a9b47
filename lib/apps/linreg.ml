(* Linear regression (Phoenix LR): one pass over the (x, y) points
   accumulating sum_x, sum_y, sum_xx, sum_xy per thread, then a reduction.

   This kernel is the paper's RP-placement case study (section 5.3):

   - [`Per_point] restart points: every point's processing must persist its
     effect, so the four accumulators are InCLL variables updated with
     update_InCLL at every point — the naive placement that cost the paper
     a 9x slowdown;
   - [`Per_batch n]: accumulate in volatile locals, fold into the InCLL
     accumulators and place the RP once per batch of [n] points — the fix
     that brought the overhead to ~20%. *)

type granularity = [ `Per_point | `Per_batch of int ]
type cfg = { points : int; nthreads : int; granularity : granularity }

let point_compute_ns = 2.0

type accumulators = { sx : int; sy : int; sxx : int; sxy : int }

(* Returns (virtual makespan, accumulator totals). *)
let run env persistence (cfg : cfg) ~bump =
  let pts = ref 0 in
  let setup () =
    pts := App_env.alloc persistence bump ~slot:0 ~words:(2 * cfg.points);
    for i = 0 to cfg.points - 1 do
      Simsched.Env.store env (!pts + (2 * i)) (i mod 1000);
      Simsched.Env.store env (!pts + (2 * i) + 1) (((3 * (i mod 1000)) + 7) mod 5000)
    done
  in
  let totals = Array.make cfg.nthreads { sx = 0; sy = 0; sxx = 0; sxy = 0 } in
  let makespan =
    App_env.run_workers ~setup env persistence ~nthreads:cfg.nthreads
      (fun ~slot ->
        let per = (cfg.points + cfg.nthreads - 1) / cfg.nthreads in
        let lo = slot * per and hi = min cfg.points ((slot + 1) * per) in
        (* Per-thread persistent accumulators (InCLL: they carry WAR
           dependencies across restart points). *)
        let cells =
          match persistence with
          | App_env.Transient -> [||]
          | App_env.Durable rt ->
              Array.init 4 (fun _ -> Respct.Runtime.alloc_incll rt ~slot 0)
        in
        let vsx = ref 0 and vsy = ref 0 and vsxx = ref 0 and vsxy = ref 0 in
        let flush_batch () =
          match persistence with
          | App_env.Transient -> ()
          | App_env.Durable rt ->
              let upd i v =
                if v <> 0 then
                  Respct.Runtime.update rt ~slot cells.(i)
                    (Respct.Runtime.read rt ~slot cells.(i) + v)
              in
              upd 0 !vsx;
              upd 1 !vsy;
              upd 2 !vsxx;
              upd 3 !vsxy;
              vsx := 0;
              vsy := 0;
              vsxx := 0;
              vsxy := 0
        in
        let batch =
          match cfg.granularity with `Per_point -> 1 | `Per_batch n -> n
        in
        let since_rp = ref 0 in
        for i = lo to hi - 1 do
          let x = Simsched.Env.load env (!pts + (2 * i)) in
          let y = Simsched.Env.load env (!pts + (2 * i) + 1) in
          Simsched.Env.compute env point_compute_ns;
          vsx := !vsx + x;
          vsy := !vsy + y;
          vsxx := !vsxx + (x * x);
          vsxy := !vsxy + (x * y);
          incr since_rp;
          if !since_rp >= batch then begin
            flush_batch ();
            App_env.rp persistence ~slot 1;
            since_rp := 0
          end
        done;
        flush_batch ();
        App_env.rp persistence ~slot 2;
        (* Final reduction values, read back for verification. *)
        totals.(slot) <-
          (match persistence with
          | App_env.Transient -> { sx = !vsx; sy = !vsy; sxx = !vsxx; sxy = !vsxy }
          | App_env.Durable rt ->
              {
                sx = Respct.Runtime.read rt ~slot cells.(0);
                sy = Respct.Runtime.read rt ~slot cells.(1);
                sxx = Respct.Runtime.read rt ~slot cells.(2);
                sxy = Respct.Runtime.read rt ~slot cells.(3);
              }))
  in
  let sum f = Array.fold_left (fun acc a -> acc + f a) 0 totals in
  ( makespan,
    {
      sx = sum (fun a -> a.sx);
      sy = sum (fun a -> a.sy);
      sxx = sum (fun a -> a.sxx);
      sxy = sum (fun a -> a.sxy);
    } )

(* Reference totals for correctness checks. *)
let expected cfg =
  let sx = ref 0 and sy = ref 0 and sxx = ref 0 and sxy = ref 0 in
  for i = 0 to cfg.points - 1 do
    let x = i mod 1000 in
    let y = ((3 * (i mod 1000)) + 7) mod 5000 in
    sx := !sx + x;
    sy := !sy + y;
    sxx := !sxx + (x * x);
    sxy := !sxy + (x * y)
  done;
  { sx = !sx; sy = !sy; sxx = !sxx; sxy = !sxy }
