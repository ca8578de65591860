type state = Trusted | Suspected | Confirmed_down | Recovered

type config = {
  period : float;
  timeout : float;
  phi_factor : float;
  confirm_misses : int;
  backoff : float;
  max_horizon : float;
}

let default_config =
  {
    period = 0.05;
    timeout = 0.15;
    phi_factor = 4.0;
    confirm_misses = 3;
    backoff = 2.0;
    max_horizon = 2.0;
  }

type peer = {
  mutable last : float;  (** arrival time of the most recent heartbeat *)
  mutable mean : float;  (** EWMA of observed inter-arrival gaps *)
  mutable st : state;
  mutable misses : int;  (** consecutive expired deadlines since the last beat *)
  mutable horizon : float;  (** current deadline extension, bounded back-off *)
  mutable deadline : float;  (** next instant at which silence counts *)
}

type t = {
  cfg : config;
  peers : peer array;
  mutable suspicions : int;
  mutable confirmations : int;
  mutable recoveries : int;
  mutable heartbeats : int;
}

let check_config cfg =
  if cfg.period <= 0. then invalid_arg "Fd.Detector: period must be positive";
  if cfg.timeout <= cfg.period then
    invalid_arg "Fd.Detector: timeout must exceed the heartbeat period";
  if cfg.phi_factor < 1. then
    invalid_arg "Fd.Detector: phi_factor must be >= 1";
  if cfg.confirm_misses < 1 then
    invalid_arg "Fd.Detector: confirm_misses must be >= 1";
  if cfg.backoff < 1. then invalid_arg "Fd.Detector: backoff must be >= 1";
  if cfg.max_horizon < cfg.timeout then
    invalid_arg "Fd.Detector: max_horizon must be >= timeout"

(* The fresh-peer horizon: generous enough that a peer whose first beat is
   still in flight at boot is not suspected before it had a chance to send
   one ([timeout] already exceeds [period] by construction). *)
let base_horizon cfg mean = Float.max cfg.timeout (cfg.phi_factor *. mean)

let create ?(config = default_config) ~nodes ~now () =
  check_config config;
  if nodes <= 0 then invalid_arg "Fd.Detector: nodes must be positive";
  {
    cfg = config;
    peers =
      Array.init nodes (fun _ ->
          {
            last = now;
            mean = config.period;
            st = Trusted;
            misses = 0;
            horizon = base_horizon config config.period;
            deadline = now +. base_horizon config config.period;
          });
    suspicions = 0;
    confirmations = 0;
    recoveries = 0;
    heartbeats = 0;
  }

(* Lazily roll a peer's deadline clock forward to [now]: every expired
   deadline is one "miss". The first miss moves a trusted (or freshly
   recovered) peer to [Suspected]; [confirm_misses] consecutive misses
   confirm it down. Each miss stretches the horizon by [backoff] (bounded by
   [max_horizon]), so a long outage costs O(log) state transitions and a
   recovering peer is re-trusted quickly. All arithmetic is on caller-supplied
   clock values — the detector itself never reads a clock, which is what
   makes suspicion a pure function of the heartbeat arrival history. *)
let refresh t p ~now =
  while now >= p.deadline do
    p.misses <- p.misses + 1;
    (match p.st with
    | Trusted | Recovered ->
        p.st <- Suspected;
        t.suspicions <- t.suspicions + 1
    | Suspected ->
        if p.misses >= t.cfg.confirm_misses then begin
          p.st <- Confirmed_down;
          t.confirmations <- t.confirmations + 1
        end
    | Confirmed_down -> ());
    p.horizon <- Float.min (p.horizon *. t.cfg.backoff) t.cfg.max_horizon;
    p.deadline <- p.deadline +. p.horizon
  done

let check_node t node ctx =
  if node < 0 || node >= Array.length t.peers then
    invalid_arg (Printf.sprintf "Fd.Detector.%s: node %d out of range" ctx node)

let heartbeat t ~node ~now =
  check_node t node "heartbeat";
  let p = t.peers.(node) in
  t.heartbeats <- t.heartbeats + 1;
  refresh t p ~now;
  (match p.st with
  | Suspected | Confirmed_down ->
      (* The peer was under suspicion and is demonstrably emitting: either
         the suspicion was false (loss, partition, overload) or the peer
         restarted. One transitional [Recovered] beat, then trust. *)
      p.st <- Recovered;
      t.recoveries <- t.recoveries + 1
  | Recovered -> p.st <- Trusted
  | Trusted -> ());
  let gap = now -. p.last in
  (* Fold the observed gap into the adaptive horizon (phi-accrual style:
     the deadline tracks a multiple of the observed cadence, so a slow but
     steady peer is not endlessly re-suspected). Outage-length gaps are
     excluded — they measure the fault, not the cadence. *)
  if gap > 0. && gap <= t.cfg.max_horizon then
    p.mean <- (0.875 *. p.mean) +. (0.125 *. gap);
  p.last <- now;
  p.misses <- 0;
  p.horizon <- base_horizon t.cfg p.mean;
  p.deadline <- now +. p.horizon

let state t ~node ~now =
  check_node t node "state";
  let p = t.peers.(node) in
  refresh t p ~now;
  p.st

let suspected t ~node ~now =
  match state t ~node ~now with
  | Suspected | Confirmed_down -> true
  | Trusted | Recovered -> false


let suspicions t = t.suspicions
let confirmations t = t.confirmations
let recoveries t = t.recoveries
let heartbeats_seen t = t.heartbeats
