"""C1 fixture (good): unit wired into serial and vector paths."""


class Collector:
    def collect_flow_entity(self, snapshot, key):
        return key

    def run(self, snapshot):
        return [self.collect_flow_entity(snapshot, k) for k in sorted(snapshot)]
