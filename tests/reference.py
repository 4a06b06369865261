"""The reference kernel: the simulation kernel with every shortcut undone.

Each shortcut of ``virtree.simkernel._Kernel`` claims to change no output.
``ReferenceKernel`` overrides each one with the plain model it stands for, all
at once, so that a run of the kernel can be compared with a run of the
reference byte for byte, shortcuts that interact included:

- ``fan_out`` and ``send``: one heap entry per copy, not one per fire time
  or per fan-down;
- ``deliver_workers`` and ``deliver_nodes``: each worker or tree copy
  delivered and counted alone, not in one pass over cluster runs or tree
  nodes;
- ``deliver_worker``, which the kernel does not have: each worker copy
  acted on alone, in order, each report its own ``send_reports`` call, not
  a cluster run acted on in one pass with its reports sent in one call;
- ``send_reports``: every report queued and delivered alone, as an entry of
  count 1, none accounted as a certain drop when sent;
- ``schedule_initial``: every command, failure and maintenance round its
  own heap entry, all pushed before the first event, each command's message
  built then, not each initial event and round queued when the one before
  it fires;
- ``handle_maintenance``: every round handled, and every region visited in
  it, not only the unsettled ones, nor a quiet stretch of rounds counted at
  once.

It also checks what the kernel relies on and does not write: every alive
worker receive is logged as ``(worker, from_worker)`` in ``receives``, beside
the trace so that record seqs stay comparable, for the ``run_end`` receive
counters to be checked against; and after every kill and revive each role is
held by an alive worker, since deliveries check only for a vacancy.
"""

from virtree import adjacent as adj
from virtree.hierarchical import leader_on_receive_immediate, route_interior
from virtree.messages import msg_id_str, new_command
from virtree.simkernel import _Kernel, copies_of, quantize
from virtree.topology import LAYER_LEADER, goal_clusters_for_scope


class ReferenceKernel(_Kernel):
    def __init__(self, sc, sink=None):
        super().__init__(sc, sink)
        self.receives: list[tuple[int, int]] = []  # (worker, from_worker)

    def fan_out(self, segments, m, senders):
        for cls, ws in segments:
            for w in ws:
                super().fan_out([(cls, [w])], m, senders)

    def send(self, nodes, m, sender):
        for node in nodes:
            super().send([node], m, sender)

    def send_reports(self, c, m, n):
        fire = quantize(self.now + self.latency["cluster"])
        for _ in range(n):
            self.bump("deliveries_enqueued")
            self.push(fire, self.handle_delivery, (("leader", c), m, 1, False))

    def schedule_initial(self):
        sc = self.sc
        seq_per_origin = {}
        for cmd in sc.commands:
            seq = seq_per_origin.get(cmd.origin, 0)
            seq_per_origin[cmd.origin] = seq + 1
            m = new_command(cmd.origin, seq, goal_clusters_for_scope(self.topo, cmd.scope),
                            set(cmd.targets))
            dest, sender = ((("leader", cmd.origin), 1) if sc.strategy == "adjacent"
                            else (("nodes", [(LAYER_LEADER, cmd.origin)]), None))
            self.bump("deliveries_enqueued")
            self.push(cmd.time, self.handle_delivery, (dest, m, sender, True))
        for spec in sc.failures:
            if spec.kind == "worker" and spec.action == "revive":
                self.push(spec.time, self.revive_worker, (spec.worker,))
            else:
                self.push(spec.time, self.handle_failure, (spec,))
        n_rounds = int(sc.horizon / sc.round_period + 1e-9)
        for i in range(1, n_rounds + 1):
            self.push(quantize(i * sc.round_period), self.handle_maintenance, (i,))

    def handle_maintenance(self, rnd):
        self.unsettled.update(self.topo.regions)
        super().handle_maintenance(rnd)  # rounds stays 0 here, so no next round is queued

    def deliver_workers(self, ws, m, senders):
        """Deliver each sender's copies in turn, each copy alone: count and
        log each alive one's receive, and its crossing when the sender sits
        in another region, before it acts."""
        region_of = self.topo.region_of_worker
        for s in senders:
            for w in copies_of(ws, senders[0], s):
                if self.topo.is_alive(w):
                    self.receives.append((w, s))
                    self.bump("deliveries_completed")
                    self.bump("alg1_receives")
                    self.bump("alg1_cross_region_receives", int(region_of(w) != region_of(s)))
                self.deliver_worker(w, m, s)

    def deliver_worker(self, w, m, sender):
        """Act on one worker copy: drop it at a dead worker, else run each
        of ``worker_on_receive``'s actions in order, a report drawn on the
        cluster jam and sent alone, a relay made alone or suppressed."""
        if not self.topo.is_alive(w):
            self.bump("deliveries_dropped_dead")
            self.emit("kernel", "drop_dead", worker=w, msg_id=msg_id_str(m.msg_id))
            return
        for action in adj.worker_on_receive(w, m, self.topo):
            if isinstance(action, adj.ExecuteLocally):
                self.apply_execution(w, m, comp="alg1", from_worker=sender)
            elif isinstance(action, adj.ReportToLeader):
                self.bump("reports_sent")
                if not self.jammed("cluster", m, ("leader", action.cluster)):
                    self.send_reports(action.cluster, m, 1)
            elif w in self.relayed[m.msg_id]:
                self.bump("relay_suppressed")
            else:
                self.relayed[m.msg_id].add(w)
                self.relay([w], m, sender)

    def deliver_nodes(self, nodes, m, from_node):
        """Deliver each tree copy alone and count it: park it at a vacant
        node, else process it at a leaf, climbing when it is an injection
        (no sending node), or route it at an interior node; then forward
        each copy made on its own."""
        mid = msg_id_str(m.msg_id)
        for node in nodes:
            if self.links.holder(node) is None:
                self.bump("deliveries_parked")
                self.park(m, node, from_node)
                continue
            self.bump("deliveries_completed")
            if node[0] == LAYER_LEADER:
                if not self.first_receive("alg3", node[1], m):
                    continue
                decision = leader_on_receive_immediate(node[1], m, self.topo, self.links,
                                                       injected=from_node is None)
                self.emit_visit("alg3", node[1], mid, m, decision)
                fwds = decision.forwards
            else:
                fwds = route_interior(node, m, from_node, self.topo, self.links,
                                      self.sc.route_mode)
                self.emit("alg3", "route", node=str(node), msg_id=mid, n_out=len(fwds),
                          hop=m.hop_count)
            for fwd in fwds:
                self.forward_tree(node, [fwd])

    def kill_worker(self, w):
        super().kill_worker(w)
        self.check_holders()

    def revive_worker(self, w):
        super().revive_worker(w)
        self.check_holders()

    def check_holders(self):
        dead = [(layer, scope, w) for layer, held in self.topo.roles.items()
                for scope, w in held.items() if not self.topo.is_alive(w)]
        assert dead == [], f"roles held by dead workers: {dead}"
