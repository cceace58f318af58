open F90d_base
open F90d_dist
open F90d_machine

(* The grid dimension an array dimension is distributed over; structured
   primitives are only generated for distributed dimensions. *)
let pdim_of (darr : Darray.t) dim =
  match (Dad.dims darr.Darray.dad).(dim).Dad.pdim with
  | Some p -> p
  | None -> Diag.bug "structured: dimension %d of %s is not distributed" (dim + 1)
              (Dad.name darr.Darray.dad)

let my_counts ctx (darr : Darray.t) = Dad.local_counts darr.Darray.dad ~rank:(Rctx.me ctx)

let owner_coord (darr : Darray.t) dim g =
  let d = (Dad.dims darr.Darray.dad).(dim) in
  Distrib.owner d.Dad.dist (Affine.eval d.Dad.align g)

let my_coord ctx (darr : Darray.t) dim = (Rctx.my_coords ctx).(pdim_of darr dim)

(* Copy the slices of [local] at the given storage positions along [dim]
   into a fresh array whose [dim] extent is the number of slices. *)
let gather_dim_slices ctx local ~dim ~counts positions =
  let extents = Array.copy counts in
  extents.(dim) <- Array.length positions;
  let out = Ndarray.create (Ndarray.kind local) extents in
  Array.iteri
    (fun i pos ->
      let lo = Array.make (Array.length counts) 0 in
      lo.(dim) <- pos;
      let box_extents = Array.copy counts in
      box_extents.(dim) <- 1;
      let slab = Ndarray.get_box local ~lo ~extents:box_extents in
      let dst_lo = Array.make (Array.length counts) 1 in
      dst_lo.(dim) <- i + 1;
      Ndarray.set_box out ~lo:dst_lo slab)
    positions;
  Rctx.charge_copy_bytes ctx (Ndarray.bytes out);
  out

(* Place the [dim] slices of [src] (in order) at the given positions of
   [dst] along [dim].  [origin] is the index where the owned box starts in
   the non-shifted dimensions: 0 for local sections (whose lower bound is
   the ghost corner), 1 for fresh temporaries. *)
let scatter_dim_slices ctx ~dst ~dim ~origin positions src =
  let nd = Ndarray.rank dst in
  let box_extents = Array.copy src.Ndarray.extents in
  box_extents.(dim) <- 1;
  Array.iteri
    (fun i pos ->
      let src_lo = Array.make nd 1 in
      src_lo.(dim) <- i + 1;
      let slab = Ndarray.get_box src ~lo:src_lo ~extents:box_extents in
      let dst_lo = Array.make nd origin in
      dst_lo.(dim) <- pos;
      Ndarray.set_box dst ~lo:dst_lo slab)
    positions;
  Rctx.charge_copy_bytes ctx (Ndarray.bytes src)

let multicast ctx (darr : Darray.t) ~dim ~g =
  let me_coord = my_coord ctx darr dim in
  let root_coord = owner_coord darr dim g in
  let team = Collectives.team_along ctx ~dim:(pdim_of darr dim) in
  let counts = my_counts ctx darr in
  let payload =
    if me_coord = root_coord then begin
      let pos = Layout.local_of_global (Dad.layout_at darr.Darray.dad ~dim ~rank:(Rctx.me ctx)) g in
      Message.Arr (gather_dim_slices ctx darr.Darray.local ~dim ~counts [| pos |])
    end
    else Message.Empty
  in
  match Collectives.broadcast ctx team ~root:root_coord payload with
  | Message.Arr slab -> slab
  | _ -> Diag.bug "multicast: protocol error"

(* Split-phase multicast: the issue half gathers the owner's slab (so
   the data in flight is the source as of the issue point — the split
   pass only separates issue from wait across statements that provably
   do not write the broadcast slice) and runs the nonblocking half of
   the broadcast tree; the wait half completes it. *)
let multicast_issue ctx (darr : Darray.t) ~dim ~g =
  let me_coord = my_coord ctx darr dim in
  let root_coord = owner_coord darr dim g in
  let team = Collectives.team_along ctx ~dim:(pdim_of darr dim) in
  let counts = my_counts ctx darr in
  let payload =
    if me_coord = root_coord then begin
      let pos = Layout.local_of_global (Dad.layout_at darr.Darray.dad ~dim ~rank:(Rctx.me ctx)) g in
      Message.Arr (gather_dim_slices ctx darr.Darray.local ~dim ~counts [| pos |])
    end
    else Message.Empty
  in
  Collectives.broadcast_issue ctx team ~root:root_coord payload

let multicast_wait ctx pending =
  match Collectives.broadcast_wait ctx pending with
  | Message.Arr slab -> slab
  | _ -> Diag.bug "multicast_wait: protocol error"

let transfer ctx (darr : Darray.t) ~dim ~gsrc ~gdest =
  let me_coord = my_coord ctx darr dim in
  let src_coord = owner_coord darr dim gsrc in
  let dest_coord = owner_coord darr dim gdest in
  let team = Collectives.team_along ctx ~dim:(pdim_of darr dim) in
  let counts = my_counts ctx darr in
  let payload =
    if me_coord = src_coord then begin
      let pos = Layout.local_of_global (Dad.layout_at darr.Darray.dad ~dim ~rank:(Rctx.me ctx)) gsrc in
      Some (Message.Arr (gather_dim_slices ctx darr.Darray.local ~dim ~counts [| pos |]))
    end
    else None
  in
  match Collectives.transfer ctx team ~src:src_coord ~dest:dest_coord payload with
  | Some (Message.Arr slab) -> Some slab
  | Some _ -> Diag.bug "transfer: protocol error"
  | None -> None

(* The peers of one ghost shift, planned from one coordinate's side.
   Every coordinate owns a contiguous block of global indices ([range c]
   gives its first index and count), [owner g] is the coordinate owning
   index [g], and a shift by [amount] fills the [|amount|] ghost cells
   past the block's end ([amount > 0]) or before its start.  Blocks may
   be shorter than the shift, so a ghost range can span several owners.

   My ghost cells are owned by the blocks that cover them.  The peers
   whose ghosts I fill are exactly the owners of the [|amount|] cells on
   my other side: such a block ends (or starts) within [|amount|] cells
   of mine, so its ghost range reaches into my block, and no block
   further away can.  Both sets are found through [owner], so the cost
   is O(|amount|) lookups whatever the number of coordinates; every pair
   derives the same lists locally.

   Returns [(sends, recvs)], each ordered by peer coordinate: for a send,
   the positions (relative to my owned origin) of my slices in the
   peer's ghost order; for a receive, the ghost slots they fill. *)
let plan_shift ~range ~owner ~extent ~coord ~amount =
  let w = abs amount in
  let first, count = range coord in
  if count = 0 then ([], [])
  else begin
    let last = first + count in
    let near_lo, near_hi, ghost_lo, ghost_hi =
      if amount > 0 then (max 0 (first - w), first, last, min extent (last + w))
      else (last, min extent (last + w), max 0 (first - w), first)
    in
    let sends = ref [] and g = ref near_lo in
    while !g < near_hi do
      let c = owner !g in
      let cf, ccount = range c in
      let lo, hi = if amount > 0 then (cf + ccount, cf + ccount + w) else (cf - w, cf) in
      let lo = max lo first and hi = min hi last in
      if c <> coord && hi > lo then
        sends := (c, Array.init (hi - lo) (fun i -> lo + i - first)) :: !sends;
      g := max (!g + 1) (cf + ccount)
    done;
    let recvs = ref [] in
    for g = ghost_hi - 1 downto ghost_lo do
      let c = owner g in
      if c <> coord then
        recvs :=
          match !recvs with
          | (c', slots) :: rest when c' = c -> (c, (g - first) :: slots) :: rest
          | l -> (c, [ g - first ]) :: l
    done;
    let by_coord l = List.sort (fun (a, _) (b, _) -> compare a b) l in
    (by_coord !sends, by_coord (List.map (fun (c, slots) -> (c, Array.of_list slots)) !recvs))
  end

(* [plan_shift] for one member of an overlap shift, in grid ranks; layouts
   are read by coordinate, so the layout memo stays on this rank. *)
let shift_peers ctx (darr : Darray.t) ~dim ~amount =
  let dad = darr.Darray.dad in
  let d = (Dad.dims dad).(dim) in
  let range c =
    match Dad.layout dad ~dim ~coord:c with
    | Layout.Prog { first; step = 1; count } -> (first, count)
    | _ -> Diag.bug "overlap_shift: layout of %s dim %d is not contiguous" (Dad.name dad) (dim + 1)
  in
  let sends, recvs =
    plan_shift ~range ~owner:(owner_coord darr dim) ~extent:d.Dad.extent
      ~coord:(my_coord ctx darr dim) ~amount
  in
  let w = abs amount in
  if (amount > 0 && d.Dad.ghost_hi < w) || (amount < 0 && d.Dad.ghost_lo < w) then
    Diag.bug "overlap_shift: ghost area of %s dim %d narrower than shift %d" (Dad.name dad)
      (dim + 1) amount;
  let team = Collectives.team_along ctx ~dim:(pdim_of darr dim) in
  let in_ranks = List.map (fun (c, slots) -> (team.(c), slots)) in
  (in_ranks sends, in_ranks recvs)

let overlap_shift ctx (darr : Darray.t) ~dim ~amount =
  if amount <> 0 then begin
    let sends, recvs = shift_peers ctx darr ~dim ~amount in
    let counts = my_counts ctx darr in
    List.iter
      (fun (dest, positions) ->
        Rctx.send ctx ~dest ~tag:Tags.shift
          (Message.Arr (gather_dim_slices ctx darr.Darray.local ~dim ~counts positions)))
      sends;
    List.iter
      (fun (src, slots) ->
        let msg = Rctx.recv ctx ~src ~tag:Tags.shift in
        scatter_dim_slices ctx ~dst:darr.Darray.local ~dim ~origin:0 slots (Message.arr msg))
      recvs
  end

(* Exchange along one grid dimension: every coordinate wants the global
   dim-indices given by [wants coord] (in its local order).  Both sides of
   every pair derive their lists locally — the want-function is common
   knowledge, as with the paper's invertible subscripts — and slabs move in
   one vectorized message per communicating pair.  Wanted positions
   without an owner (outside the array) are left zero. *)
let exchange_wants ctx (darr : Darray.t) ~dim ~wants =
  let dad = darr.Darray.dad in
  let d = (Dad.dims dad).(dim) in
  let me = Rctx.me ctx in
  let pd = pdim_of darr dim in
  let team = Collectives.team_along ctx ~dim:pd in
  let coord = my_coord ctx darr dim in
  let counts = my_counts ctx darr in
  let m = Array.length team in
  let my_wants = wants coord in
  Rctx.charge_iops ctx (3 * Array.length my_wants);
  let owner_of g = if g >= 0 && g < d.Dad.extent then Some (owner_coord darr dim g) else None in
  let mylay = Dad.layout_at dad ~dim ~rank:me in
  (* send first: for each peer, the slices of mine that it wants, in its order *)
  for c = 0 to m - 1 do
    if c <> coord then begin
      let positions =
        Array.to_seq (wants c)
        |> Seq.filter_map (fun g ->
               match owner_of g with
               | Some o when o = coord -> Some (Layout.local_of_global mylay g)
               | _ -> None)
        |> Array.of_seq
      in
      if Array.length positions > 0 then
        Rctx.send ctx ~dest:team.(c) ~tag:Tags.shift
          (Message.Arr (gather_dim_slices ctx darr.Darray.local ~dim ~counts positions))
    end
  done;
  (* result temporary, filled locally then from incoming messages *)
  let extents = Array.copy counts in
  extents.(dim) <- Array.length my_wants;
  let tmp = Ndarray.create (Ndarray.kind darr.Darray.local) extents in
  let local_positions = ref [] and local_sources = ref [] in
  let from_peer = Array.make m [] in
  Array.iteri
    (fun i g ->
      match owner_of g with
      | Some c when c = coord ->
          local_positions := (i + 1) :: !local_positions;
          local_sources := Layout.local_of_global mylay g :: !local_sources
      | Some c -> from_peer.(c) <- (i + 1) :: from_peer.(c)
      | None -> ())
    my_wants;
  if !local_positions <> [] then
    scatter_dim_slices ctx ~dst:tmp ~dim ~origin:1
      (Array.of_list (List.rev !local_positions))
      (gather_dim_slices ctx darr.Darray.local ~dim ~counts
         (Array.of_list (List.rev !local_sources)));
  for c = 0 to m - 1 do
    if c <> coord && from_peer.(c) <> [] then begin
      let msg = Rctx.recv ctx ~src:team.(c) ~tag:Tags.shift in
      scatter_dim_slices ctx ~dst:tmp ~dim ~origin:1 (Array.of_list (List.rev from_peer.(c))) (Message.arr msg)
    end
  done;
  tmp

let temporary_shift ctx (darr : Darray.t) ~dim ~amount =
  let dad = darr.Darray.dad in
  let pd = pdim_of darr dim in
  let team = Collectives.team_along ctx ~dim:pd in
  let wants c =
    let l = Dad.layout_at dad ~dim ~rank:team.(c) in
    Array.init (Layout.count l) (fun i -> Layout.global_of_local l i + amount)
  in
  exchange_wants ctx darr ~dim ~wants

let multicast_shift ctx (darr : Darray.t) ~mdim ~g ~sdim ~amount =
  (* the owner row of [g] shifts among itself, then broadcasts the combined
     slab: one tree instead of shift-everywhere + broadcast *)
  let me_coord = my_coord ctx darr mdim in
  let root_coord = owner_coord darr mdim g in
  let team = Collectives.team_along ctx ~dim:(pdim_of darr mdim) in
  let payload =
    if me_coord = root_coord then begin
      let shifted = temporary_shift ctx darr ~dim:sdim ~amount in
      let pos =
        Layout.local_of_global (Dad.layout_at darr.Darray.dad ~dim:mdim ~rank:(Rctx.me ctx)) g
      in
      (* restrict the shifted temporary to the broadcast slice *)
      let lo = Array.map (fun lb -> lb) shifted.Ndarray.lb in
      let extents = Array.copy shifted.Ndarray.extents in
      lo.(mdim) <- lo.(mdim) + pos;
      extents.(mdim) <- 1;
      Message.Arr (Ndarray.get_box shifted ~lo ~extents)
    end
    else Message.Empty
  in
  match Collectives.broadcast ctx team ~root:root_coord payload with
  | Message.Arr slab -> slab
  | _ -> Diag.bug "multicast_shift: protocol error"

let concat ctx (darr : Darray.t) = Darray.gather_global ctx darr

(* ------------------------------------------------------------------ *)
(* Coalesced batches                                                   *)
(* ------------------------------------------------------------------ *)

(* One packed message per communicating rank pair.  Members keep their
   individual peer plans (arrays in one batch may have different
   distributions); what changes is the wire format: all member slabs
   bound for the same destination travel as one [Message.List] in batch
   member order, so the engine charges one latency per pair.  Both ends
   derive the member-order pair membership from the (globally known)
   layouts, exactly as the unbatched primitives do, so packing and
   unpacking agree without any extra control message.  [parts] carries
   the (member sid, member bytes) split for trace attribution. *)

let nd_of = function Message.Arr a -> a | _ -> Diag.bug "batch: protocol error"

let send_grouped ctx ~tag outs =
  (* outs: (dest rank, sid, payload) in batch member order *)
  let per_dest = Hashtbl.create 8 in
  List.iter
    (fun (dest, sid, p) ->
      Hashtbl.replace per_dest dest
        ((sid, p) :: Option.value (Hashtbl.find_opt per_dest dest) ~default:[]))
    outs;
  Hashtbl.fold (fun dest _ acc -> dest :: acc) per_dest [] |> List.sort compare
  |> List.iter (fun dest ->
         let items = List.rev (Hashtbl.find per_dest dest) in
         let parts =
           Array.of_list (List.map (fun (sid, p) -> (sid, Message.payload_bytes p)) items)
         in
         Rctx.send ~parts ctx ~dest ~tag (Message.List (List.map snd items)))

let recv_grouped ctx ~tag ins consume =
  (* ins: (src rank, item) in batch member order; calls [consume item
     payload] member-by-member as each pair's packed message arrives *)
  let per_src = Hashtbl.create 8 in
  List.iter
    (fun (src, item) ->
      Hashtbl.replace per_src src
        (item :: Option.value (Hashtbl.find_opt per_src src) ~default:[]))
    ins;
  Hashtbl.fold (fun src _ acc -> src :: acc) per_src [] |> List.sort compare
  |> List.iter (fun src ->
         let items = List.rev (Hashtbl.find per_src src) in
         let payloads = Message.list (Rctx.recv ctx ~src ~tag) in
         if List.length payloads <> List.length items then
           Diag.bug "batch: pair member count mismatch";
         List.iter2 consume items payloads)

let overlap_shift_batch ctx members =
  let plans =
    List.filter_map
      (fun ((darr : Darray.t), dim, amount, sid) ->
        if amount = 0 then None
        else begin
          let sends, recvs = shift_peers ctx darr ~dim ~amount in
          let counts = my_counts ctx darr in
          let outs =
            List.map
              (fun (dest, positions) ->
                ( dest,
                  sid,
                  Message.Arr (gather_dim_slices ctx darr.Darray.local ~dim ~counts positions) ))
              sends
          in
          Some (outs, List.map (fun (src, slots) -> (src, (darr, dim, slots))) recvs)
        end)
      members
  in
  send_grouped ctx ~tag:Tags.shift (List.concat_map fst plans);
  recv_grouped ctx ~tag:Tags.shift
    (List.concat_map snd plans)
    (fun ((darr : Darray.t), dim, slots) p ->
      scatter_dim_slices ctx ~dst:darr.Darray.local ~dim ~origin:0 slots (nd_of p))

let transfer_batch ctx members =
  let me = Rctx.me ctx in
  let plans =
    List.map
      (fun ((darr : Darray.t), dim, gsrc, gdest, sid) ->
        let src_coord = owner_coord darr dim gsrc in
        let dest_coord = owner_coord darr dim gdest in
        let team = Collectives.team_along ctx ~dim:(pdim_of darr dim) in
        let src_rank = team.(src_coord) and dest_rank = team.(dest_coord) in
        let payload =
          if src_rank = me then begin
            let counts = my_counts ctx darr in
            let pos =
              Layout.local_of_global (Dad.layout_at darr.Darray.dad ~dim ~rank:me) gsrc
            in
            Some (Message.Arr (gather_dim_slices ctx darr.Darray.local ~dim ~counts [| pos |]))
          end
          else None
        in
        (sid, src_rank, dest_rank, payload))
      members
  in
  let results = Array.make (List.length plans) None in
  let outs = ref [] and ins = ref [] in
  List.iteri
    (fun i (sid, src_rank, dest_rank, payload) ->
      match payload with
      | Some p when src_rank = dest_rank ->
          (* purely local: charge the copy, no message *)
          Rctx.charge_copy_bytes ctx (Message.payload_bytes p);
          results.(i) <- Some (nd_of p)
      | Some p -> outs := (dest_rank, sid, p) :: !outs
      | None -> if dest_rank = me && src_rank <> me then ins := (src_rank, i) :: !ins)
    plans;
  send_grouped ctx ~tag:Tags.transfer (List.rev !outs);
  recv_grouped ctx ~tag:Tags.transfer (List.rev !ins) (fun i p -> results.(i) <- Some (nd_of p));
  Array.to_list results
