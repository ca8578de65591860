type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable mn : float;
  mutable mx : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; mn = infinity; mx = neg_infinity }

let add s x =
  s.n <- s.n + 1;
  let delta = x -. s.mean in
  s.mean <- s.mean +. (delta /. float_of_int s.n);
  s.m2 <- s.m2 +. (delta *. (x -. s.mean));
  if x < s.mn then s.mn <- x;
  if x > s.mx then s.mx <- x

let count s = s.n
let mean s = if s.n = 0 then 0. else s.mean
let variance s = if s.n < 2 then 0. else s.m2 /. float_of_int (s.n - 1)
let min s = s.mn
let max s = s.mx
let total s = s.mean *. float_of_int s.n

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
    in
    {
      n;
      mean;
      m2;
      mn = Float.min a.mn b.mn;
      mx = Float.max a.mx b.mx;
    }
  end
