type t = { mutable pts : (float * float) list; mutable n : int }

let create () = { pts = []; n = 0 }

let add s ~x ~y =
  s.pts <- (x, y) :: s.pts;
  s.n <- s.n + 1

let length s = s.n
let to_list s = List.rev s.pts

let mean_y s =
  if s.n = 0 then 0.
  else List.fold_left (fun acc (_, y) -> acc +. y) 0. s.pts /. float_of_int s.n

let max_y s = List.fold_left (fun acc (_, y) -> Float.max acc y) 0. s.pts
let last s = match s.pts with [] -> None | p :: _ -> Some p

let sparkline s ~buckets =
  if buckets <= 0 then invalid_arg "Series.sparkline: buckets must be positive";
  match to_list s with
  | [] -> ""
  | pts ->
      let xs = List.map fst pts in
      let x0 = List.fold_left Float.min infinity xs in
      let x1 = List.fold_left Float.max neg_infinity xs in
      let width = if x1 > x0 then (x1 -. x0) /. float_of_int buckets else 1. in
      let sums = Array.make buckets 0. and counts = Array.make buckets 0 in
      List.iter
        (fun (x, y) ->
          let i = min (buckets - 1) (int_of_float ((x -. x0) /. width)) in
          sums.(i) <- sums.(i) +. y;
          counts.(i) <- counts.(i) + 1)
        pts;
      let top =
        Array.fold_left Float.max 0.
          (Array.mapi
             (fun i sum -> if counts.(i) = 0 then 0. else sum /. float_of_int counts.(i))
             sums)
      in
      let glyphs = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |] in
      let buf = Buffer.create (buckets * 3) in
      for i = 0 to buckets - 1 do
        if counts.(i) = 0 then Buffer.add_char buf ' '
        else begin
          let mean = sums.(i) /. float_of_int counts.(i) in
          let level =
            if top <= 0. then 0
            else min 7 (int_of_float (mean /. top *. 7.999))
          in
          Buffer.add_string buf glyphs.(level)
        end
      done;
      Buffer.contents buf

let resample s ~buckets =
  if buckets <= 0 then invalid_arg "Series.resample: buckets must be positive";
  match to_list s with
  | [] -> []
  | pts ->
      let xs = List.map fst pts in
      let x0 = List.fold_left Float.min infinity xs in
      let x1 = List.fold_left Float.max neg_infinity xs in
      if x1 <= x0 then [ (x0, mean_y s) ]
      else begin
        let width = (x1 -. x0) /. float_of_int buckets in
        let sums = Array.make buckets 0. and counts = Array.make buckets 0 in
        let place (x, y) =
          let i = min (buckets - 1) (int_of_float ((x -. x0) /. width)) in
          sums.(i) <- sums.(i) +. y;
          counts.(i) <- counts.(i) + 1
        in
        List.iter place pts;
        let out = ref [] in
        for i = buckets - 1 downto 0 do
          if counts.(i) > 0 then
            out :=
              ( x0 +. ((float_of_int i +. 0.5) *. width),
                sums.(i) /. float_of_int counts.(i) )
              :: !out
        done;
        !out
      end
