"""The deterministic network simulator: virtual time, message drops, churn,
and exact byte accounting.
"""

from swarmpipe.errors import ConnectionFailed, MessageDropped
from swarmpipe.netsim import ChurnSchedule, NetProfile, SimNetwork
from swarmpipe.wire import Ping, Pong, WireMessage, framed_nbytes


class Echo:
    def handle(self, msg, net):
        net.clock.charge(0.25)     # pretend a quarter second of compute
        return WireMessage(Pong())


net = SimNetwork(seed=42, default_profile=NetProfile(
    bandwidth_bps=1e6, rtt_ms=100.0, failure_prob=0.02))
net.register("srv", Echo())

msg = WireMessage(Ping())
print(f"frame size on the wire: {framed_nbytes(msg)} bytes")

ok = drops = 0
t0 = net.clock.now
for _ in range(200):
    try:
        net.rpc("cli", "srv", WireMessage(Ping()))
        ok += 1
    except MessageDropped:
        drops += 1
print(f"200 exchanges at p=2%: {ok} ok, {drops} dropped legs; "
      f"virtual time {net.clock.now - t0:.1f}s (rtt+compute per call, "
      f"detection budget per drop)")

# churned endpoint on a fresh clock: offline outside its schedule, a distinct
# error from a drop
net2 = SimNetwork(seed=1)
net2.register("flaky", Echo(), churn=ChurnSchedule([(5.0, 15.0)]))
try:
    net2.rpc("cli", "flaky", WireMessage(Ping()))
except ConnectionFailed as e:
    print("before on-time:", e)
net2.clock.advance_to(6.0)
net2.rpc("cli", "flaky", WireMessage(Ping()))
print("inside its on-interval the churned server answers")

stats = net.links[("cli", "srv")]
print(f"cli->srv link: {stats.messages} messages, {stats.bytes} bytes, "
      f"{stats.drops} drops (bytes are exact frame sizes)")
